package northbound_test

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/northbound"
	"repro/internal/pathimpl"
	"repro/internal/reca"
	"repro/internal/southbound"
	"repro/internal/testutil/leakcheck"
)

// tcpPair returns the two ends of one real TCP connection over loopback.
func tcpPair(t *testing.T) (parent, child net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { r.c.Close(); dial.Close() })
	return r.c, dial
}

// distTree is the core package's Fig. 5 scenario with the control tree
// split across northbound attachments: the data plane is shared (it
// simulates the physical network), but every parent↔child exchange —
// feature reads, rule installs, fences, discovery, delegation — rides the
// wire.
type distTree struct {
	net            *dataplane.Network
	root, l1, l2   *core.Controller
	devs           []*core.ConnDevice
	links          []*northbound.ParentConn
	radioA, radioB dataplane.PortRef
	// gates and switches are set when the leaves' switches sit behind
	// pausable agents (distLeaves with agents): per switch, the gate in
	// front of its agent and the leaf's device handle on it.
	gates    map[dataplane.DeviceID]*gate
	switches map[dataplane.DeviceID]*core.ConnDevice
}

// buildDist builds the tree over real TCP, with in-process leaf switches.
func buildDist(t *testing.T) *distTree { return buildDistOver(t, false) }

// buildDistOver builds the tree. With pipes, every parent↔child link is a
// southbound.Pipe and every leaf switch a ConnDevice over a Pipe to a
// pausable SwitchAgent; otherwise the links are loopback TCP and the
// switches in-process.
func buildDistOver(t *testing.T, pipes bool) *distTree {
	t.Helper()
	dt := distLeaves(t, pipes)
	dt.root = core.NewController("root", 2, 2)
	dt.root.Mode = pathimpl.ModeSwap

	for _, leaf := range []*core.Controller{dt.l1, dt.l2} {
		var pc, cc southbound.Conn
		if pipes {
			pc, cc = southbound.Pipe(1024) // the root's fan-out never waits on a full pipe
		} else {
			p, c := tcpPair(t)
			pc, cc = southbound.NewBinConn(p), southbound.NewBinConn(c)
		}
		type cres struct {
			p   *northbound.ParentConn
			err error
		}
		ch := make(chan cres, 1)
		leaf := leaf
		go func() {
			p, err := northbound.Connect(leaf, cc)
			ch <- cres{p, err}
		}()
		d, err := northbound.AttachRemoteChild(dt.root, pc)
		if err != nil {
			t.Fatal(err)
		}
		if pipes {
			// A retried barrier fences only the mods after the previous
			// one (DESIGN.md §11), so a root fence that timed out under
			// -race load would complete before the translation it
			// covers. These tests are about completion and rollback, not
			// retries: the root's fences never time out.
			d.RequestTimeout, d.MinRTO = time.Minute, time.Minute
		}
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		dt.devs = append(dt.devs, d)
		dt.links = append(dt.links, r.p)
	}
	t.Cleanup(func() {
		for _, p := range dt.links {
			p.Close()
		}
		for _, d := range dt.devs {
			d.Close()
		}
		for _, d := range dt.devs {
			d.WaitStopped()
		}
	})

	// Distributed finishLevel: in-band discovery over the wire, then the
	// derived config from the remotely learned G-switch exposures.
	dt.root.RunDiscovery()
	if err := northbound.FenceDiscovery(dt.devs); err != nil {
		t.Fatal(err)
	}
	core.RefreshDerived(dt.root)

	if err := dt.l1.PropagateInterdomainErr(); err != nil {
		t.Fatal(err)
	}
	if err := dt.l2.PropagateInterdomainErr(); err != nil {
		t.Fatal(err)
	}
	return dt
}

// distLeaves builds the shared data plane and bootstraps both leaves, with
// their interdomain routes, but attaches them to no parent. With agents,
// every leaf switch is re-attached as a ConnDevice over a Pipe to a
// SwitchAgent behind a gate the test can pause.
func distLeaves(t *testing.T, agents bool) *distTree {
	t.Helper()
	// Every goroutine the tree spawns — ParentConn serve loops, device
	// pumps, switch agents, peer-request handlers — must be gone after the
	// cleanups.
	leakcheck.Check(t)
	dpn := dataplane.NewNetwork()
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3", "S4"} {
		dpn.AddSwitch(id)
	}
	mustLink := func(a, b dataplane.DeviceID) {
		if _, err := dpn.Connect(a, b, 5*time.Millisecond, 1000); err != nil {
			t.Fatal(err)
		}
	}
	mustLink("S1", "S2")
	mustLink("S2", "S3") // cross-region
	mustLink("S3", "S4")
	rpA, err := dpn.AddRadioPort("S1", "gA")
	if err != nil {
		t.Fatal(err)
	}
	rpB, err := dpn.AddRadioPort("S3", "gB")
	if err != nil {
		t.Fatal(err)
	}
	near, err := dpn.AddEgress("E-near", "S2", "isp-near")
	if err != nil {
		t.Fatal(err)
	}
	far, err := dpn.AddEgress("E-far", "S4", "isp-far")
	if err != nil {
		t.Fatal(err)
	}

	dt := &distTree{
		net:    dpn,
		radioA: dataplane.PortRef{Dev: "S1", Port: rpA.ID},
		radioB: dataplane.PortRef{Dev: "S3", Port: rpB.ID},
	}
	dt.l1 = core.NewController("L1", 1, 0)
	if err := core.BootstrapLeaf(dpn, dt.l1, core.LeafSpec{
		ID:       "L1",
		Switches: []dataplane.DeviceID{"S1", "S2"},
		Radios: []reca.RadioAttachment{
			{ID: "gA", Attach: dt.radioA, Border: true, Constituents: []dataplane.DeviceID{"gA"}},
		},
		BSGroup: map[dataplane.DeviceID]dataplane.DeviceID{"b1": "gA", "b2": "gA"},
	}); err != nil {
		t.Fatal(err)
	}
	dt.l2 = core.NewController("L2", 1, 1)
	if err := core.BootstrapLeaf(dpn, dt.l2, core.LeafSpec{
		ID:       "L2",
		Switches: []dataplane.DeviceID{"S3", "S4"},
		Radios: []reca.RadioAttachment{
			{ID: "gB", Attach: dt.radioB, Border: true, Constituents: []dataplane.DeviceID{"gB"}},
		},
		BSGroup: map[dataplane.DeviceID]dataplane.DeviceID{"b3": "gB"},
	}); err != nil {
		t.Fatal(err)
	}
	dt.l1.Mode = pathimpl.ModeSwap
	dt.l2.Mode = pathimpl.ModeSwap
	dt.l1.AddInterdomainRoutes([]interdomain.Route{
		{Prefix: "pfxNear", Egress: "E-near", EgressSwitch: "S2",
			Metrics: interdomain.Metrics{Hops: 10, RTT: 20 * time.Millisecond}},
	}, dataplane.PortRef{Dev: "S2", Port: near.Port})
	dt.l2.AddInterdomainRoutes([]interdomain.Route{
		{Prefix: "pfxFar", Egress: "E-far", EgressSwitch: "S4",
			Metrics: interdomain.Metrics{Hops: 8, RTT: 16 * time.Millisecond}},
	}, dataplane.PortRef{Dev: "S4", Port: far.Port})
	if agents {
		dt.gateSwitches(t)
	}
	return dt
}

func (dt *distTree) totalRules() int {
	n := 0
	for _, sw := range dt.net.Switches() {
		n += sw.Table.Len()
	}
	return n
}

func TestDistributedBootstrapDiscoversCrossLink(t *testing.T) {
	dt := buildDist(t)
	if got := dt.root.NIB.NumLinks(); got != 1 {
		t.Fatalf("root links = %d, want exactly the cross-region link", got)
	}
	l := dt.root.NIB.Links()[0]
	devs := map[dataplane.DeviceID]bool{l.A.Dev: true, l.B.Dev: true}
	if !devs["GS-L1"] || !devs["GS-L2"] {
		t.Fatalf("cross link endpoints = %v", l)
	}
	for _, id := range []dataplane.DeviceID{"GS-L1", "GS-L2"} {
		rec, ok := dt.root.NIB.Device(id)
		if !ok || rec.Kind != dataplane.KindGSwitch {
			t.Fatalf("root NIB missing G-switch %s", id)
		}
		if len(rec.GBSes) != 1 {
			t.Fatalf("%s exposes %d G-BSes", id, len(rec.GBSes))
		}
	}
}

func TestDistributedDelegation(t *testing.T) {
	dt := buildDist(t)
	base := dt.totalRules()
	rec, err := dt.l1.HandleBearerRequest(core.BearerRequest{UE: "u1", BS: "b1", Prefix: "pfxFar"})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Active || rec.HandledBy.OwnerID() != "root" {
		t.Fatalf("delegated bearer: active=%v owner=%s", rec.Active, rec.HandledBy.OwnerID())
	}
	res, err := dt.net.Inject("S1", dt.radioA.Port, &dataplane.Packet{UE: "u1", DstPrefix: "pfxFar"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != dataplane.DispEgressed || res.EgressPort.Dev != "S4" {
		t.Fatalf("delegated path: %v at %v", res.Disposition, res.EgressPort)
	}
	// Detach tears the root-owned path down via the remote-owner proxy:
	// the teardown ascends L1's wire, the root removes rules in both
	// regions over the children's wires.
	if err := dt.l1.Detach("u1"); err != nil {
		t.Fatal(err)
	}
	if got := dt.totalRules(); got != base {
		t.Fatalf("rules after detach = %d, want baseline %d", got, base)
	}
	if pr, ok := dt.root.Path(rec.PathID); ok {
		t.Fatalf("root still holds the path after remote teardown: %+v", pr)
	}
	// A repeat release of the forgotten path crosses the wire as a no-op.
	if err := rec.HandledBy.TeardownPath(rec.PathID, nil); err != nil {
		t.Fatalf("repeat remote teardown: %v", err)
	}
	if got := dt.totalRules(); got != base {
		t.Fatalf("rules after repeat teardown = %d, want baseline %d", got, base)
	}
}

func TestDistributedNoRouteCrossesWire(t *testing.T) {
	dt := buildDist(t)
	_, err := dt.l1.HandleBearerRequest(core.BearerRequest{UE: "u2", BS: "b1", Prefix: "pfxNowhere"})
	if !errors.Is(err, core.ErrNoRoute) {
		t.Fatalf("want ErrNoRoute through the wire, got %v", err)
	}
}

func TestDistributedInterRegionHandover(t *testing.T) {
	dt := buildDist(t)
	if _, err := dt.l1.HandleBearerRequest(core.BearerRequest{UE: "u6", BS: "b1", Prefix: "pfxFar"}); err != nil {
		t.Fatal(err)
	}
	if err := dt.l1.Handover("u6", "gB", "b3"); err != nil {
		t.Fatal(err)
	}
	if dt.root.StatsSnapshot().InterRegionHandovers != 1 {
		t.Fatal("root inter-region handover counter")
	}
	rec, _ := dt.l1.UE("u6")
	if rec.BS != "b3" || rec.HandledBy.OwnerID() != "root" {
		t.Fatalf("UE after handover: BS=%s owner=%s", rec.BS, rec.HandledBy.OwnerID())
	}
	res, err := dt.net.Inject("S3", dt.radioB.Port, &dataplane.Packet{UE: "u6", DstPrefix: "pfxFar"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != dataplane.DispEgressed || res.EgressPort.Dev != "S4" {
		t.Fatalf("post-handover path: %v at %v", res.Disposition, res.EgressPort)
	}
}

func TestDistributedInterdomainPush(t *testing.T) {
	dt := buildDist(t)
	far := dt.root.RouteOptions("pfxFar")
	if len(far) != 1 || far[0].Ref.Dev != "GS-L2" || far[0].Egress != "E-far" {
		t.Fatalf("root pfxFar options = %+v", far)
	}
	near := dt.root.RouteOptions("pfxNear")
	if len(near) != 1 || near[0].Ref.Dev != "GS-L1" {
		t.Fatalf("root pfxNear options = %+v", near)
	}
	if near[0].External.Hops != 10 || near[0].External.RTT != 20*time.Millisecond {
		t.Fatalf("external metrics lost in transit: %+v", near[0].External)
	}
}

func TestDistributedFabricAndReabstract(t *testing.T) {
	dt := buildDist(t)
	pl := dt.l1.ParentLinkRef()
	if pl == nil {
		t.Fatal("leaf has no parent link")
	}
	fab := dt.l1.Abstraction().GSwitch.Fabric
	if err := pl.FabricUpdated(fab); err != nil {
		t.Fatal(err)
	}
	rec, ok := dt.root.NIB.Device("GS-L1")
	if !ok || rec.Fabric == nil {
		t.Fatal("root NIB fabric not updated over the wire")
	}
	before := dt.root.StatsSnapshot().Reabstractions
	dt.l1.Reabstract()
	if got := dt.root.StatsSnapshot().Reabstractions; got <= before {
		t.Fatalf("root reabstractions = %d, want > %d", got, before)
	}
}

func TestTransferUEStateFragmented(t *testing.T) {
	dt := buildDist(t)
	// Enough rows that the encoded NbUEState exceeds MaxFrameSize: the
	// transfer must ride the chunked Frag path end to end.
	const n = 40000
	rows := make([]core.UERecord, n)
	for i := range rows {
		rows[i] = core.UERecord{
			UE: fmt.Sprintf("xfer%06d", i), BS: "b1", Group: "gA",
			Prefix: "pfxNear", QoS: 1, PathID: core.PathID(i + 1),
			HandledBy: dt.root, Active: true,
		}
	}
	if err := northbound.TransferUEState(dt.devs[0], rows); err != nil {
		t.Fatal(err)
	}
	if got := dt.l1.UECount(); got != n {
		t.Fatalf("child adopted %d rows, want %d", got, n)
	}
	rec, ok := dt.l1.UE("xfer000123")
	if !ok || rec.HandledBy.OwnerID() != "root" || !rec.Active {
		t.Fatalf("adopted row = %+v ok=%v", rec, ok)
	}
}

// TestParentConnRefusesOwnerlessDelete: a G-switch cannot scope the
// ownerless FlowDeleteVersion to the rules it translated for one owner, so
// over the wire, as in process, the child refuses it and removes nothing.
func TestParentConnRefusesOwnerlessDelete(t *testing.T) {
	dt := buildDist(t)
	rec, err := dt.l1.HandleBearerRequest(core.BearerRequest{UE: "u7", BS: "b1", Prefix: "pfxFar"})
	if err != nil {
		t.Fatal(err)
	}
	pr, ok := dt.root.Path(rec.PathID)
	if !ok {
		t.Fatal("root holds no record of the delegated path")
	}
	before := dt.totalRules()
	if err := dt.devs[0].RemoveRules(southbound.FlowDeleteVersion, "", pr.Version); err == nil {
		t.Fatal("ownerless version delete accepted by a remote G-switch")
	}
	if got := dt.totalRules(); got != before {
		t.Fatalf("refused delete changed the rule count %d -> %d", before, got)
	}
	if err := dt.devs[0].RemoveRules(southbound.FlowDeleteOwnerVersion, pr.Owner, pr.Version); err != nil {
		t.Fatal(err)
	}
	if got := dt.totalRules(); got >= before {
		t.Fatalf("owner-scoped version delete left %d of %d rules", got, before)
	}
}

func TestParentConnDrainIdle(t *testing.T) {
	dt := buildDist(t)
	if _, err := dt.l1.HandleBearerRequest(core.BearerRequest{UE: "u9", BS: "b1", Prefix: "pfxFar"}); err != nil {
		t.Fatal(err)
	}
	if err := dt.links[0].Drain(time.Second); err != nil {
		t.Fatalf("Drain with nothing in flight: %v", err)
	}
}

// TestConnDeviceDrain exercises the SIGTERM half of a region teardown: a
// device with a fence stuck behind an unresponsive peer must report the
// in-flight work within the timeout, and report clean once the conn is
// closed and the work failed over.
func TestConnDeviceDrain(t *testing.T) {
	pc, cc := tcpPair(t)
	go func() {
		conn := southbound.NewBinConn(cc)
		if _, err := southbound.Accept(conn, "SW1"); err != nil {
			return
		}
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if m.Type == southbound.TypeFeatureRequest {
				_ = conn.Send(southbound.Msg{Type: southbound.TypeFeatureReply, Xid: m.Xid,
					Body: southbound.FeatureReply{Device: "SW1", Kind: dataplane.KindSwitch}})
			}
			// Swallow everything else: mods and fences never complete.
		}
	}()
	d, err := core.DialDevice(southbound.NewBinConn(pc), "C")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Drain(time.Second); err != nil {
		t.Fatalf("Drain on idle device: %v", err)
	}
	installed := make(chan error, 1)
	go func() { installed <- d.InstallRules([]dataplane.Rule{{Owner: "t", Priority: 1}}) }()
	var drainErr error
	for i := 0; i < 500; i++ {
		drainErr = d.Drain(2 * time.Millisecond)
		if drainErr != nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if drainErr == nil {
		t.Fatal("Drain never observed the in-flight fence")
	}
	d.Close()
	if err := d.Drain(time.Second); err != nil {
		t.Fatalf("Drain after close: %v", err)
	}
	if err := <-installed; err == nil {
		t.Fatal("install against a dead peer reported success")
	}
}
