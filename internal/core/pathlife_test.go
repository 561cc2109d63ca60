package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/pathimpl"
	"repro/internal/reca"
	"repro/internal/routing"
	"repro/internal/southbound"
)

// Path lifetime = bearer lifetime: the path table forgets a path when its
// bearer releases it, and a bearer request that moves nothing in the core
// keeps the path it has.

// lifeFixture is the reroute diamond with a mobility configuration: two
// base stations in group gA on S1, one in gB on S2, and two prefixes behind
// the S4 egress.
//
//	             S2 (gB)
//	(gA) S1 <            > S4 (E1)
//	             S3
type lifeFixture struct {
	net    *dataplane.Network
	leaf   *Controller
	radioA dataplane.PortRef
}

// buildLifeFixture wires the diamond to one leaf controller: through
// protocol agents over in-process pipes when overConn is set (so every
// FlowMod and Barrier is counted by the core.southbound.* metrics), through
// direct SwitchDevices otherwise.
func buildLifeFixture(t testing.TB, overConn bool) *lifeFixture {
	t.Helper()
	net := dataplane.NewNetwork()
	switches := []dataplane.DeviceID{"S1", "S2", "S3", "S4"}
	for _, id := range switches {
		net.AddSwitch(id)
	}
	for _, l := range []struct {
		a, b dataplane.DeviceID
		lat  time.Duration
	}{{"S1", "S2", 5 * time.Millisecond}, {"S2", "S4", 5 * time.Millisecond},
		{"S1", "S3", 20 * time.Millisecond}, {"S3", "S4", 20 * time.Millisecond}} {
		if _, err := net.Connect(l.a, l.b, l.lat, 1000); err != nil {
			t.Fatal(err)
		}
	}
	rpA, err := net.AddRadioPort("S1", "gA")
	if err != nil {
		t.Fatal(err)
	}
	rpB, err := net.AddRadioPort("S2", "gB")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.AddEgress("E1", "S4", "isp")
	if err != nil {
		t.Fatal(err)
	}
	f := &lifeFixture{net: net, radioA: dataplane.PortRef{Dev: "S1", Port: rpA.ID}}
	radioB := dataplane.PortRef{Dev: "S2", Port: rpB.ID}

	leaf := NewController("L1", 1, 0)
	for _, id := range switches {
		if !overConn {
			leaf.AttachDevice(NewSwitchDevice(net, net.Switch(id)))
			continue
		}
		agent := southbound.NewSwitchAgent(net, net.Switch(id))
		a, b := southbound.Pipe(64)
		go agent.Serve(b)
		dev, err := DialDevice(a, leaf.ID)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		leaf.AttachDevice(dev)
	}
	leaf.SetConfig(reca.Config{Radios: []reca.RadioAttachment{
		{ID: "gA", Attach: f.radioA, Border: true},
		{ID: "gB", Attach: radioB, Border: true},
	}})
	leaf.SetRadioIndex(
		map[dataplane.DeviceID]dataplane.DeviceID{"b1": "gA", "b2": "gA", "b3": "gB"},
		map[dataplane.DeviceID]dataplane.PortRef{"gA": f.radioA, "gB": radioB})
	var routes []interdomain.Route
	for _, pfx := range []interdomain.PrefixID{"pfx", "pfx2"} {
		routes = append(routes, interdomain.Route{Prefix: pfx, Egress: "E1", EgressSwitch: "S4",
			Metrics: interdomain.Metrics{Hops: 5, RTT: 10 * time.Millisecond}})
	}
	leaf.AddInterdomainRoutes(routes, dataplane.PortRef{Dev: "S4", Port: ep.Port})
	leaf.RunDiscovery()
	f.leaf = leaf
	f.waitUpLinks(t, 4)
	return f
}

// waitUpLinks polls until the leaf's NIB shows n links up (port-status
// events cross the pipes asynchronously).
func (f *lifeFixture) waitUpLinks(t testing.TB, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.leaf.NIB.NumUpLinks() != n {
		if time.Now().After(deadline) {
			t.Fatalf("NIB has %d links up, want %d", f.leaf.NIB.NumUpLinks(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *lifeFixture) link(t *testing.T, a, b dataplane.DeviceID) *dataplane.Link {
	t.Helper()
	for _, l := range f.net.Links() {
		if (l.A.Dev == a && l.B.Dev == b) || (l.A.Dev == b && l.B.Dev == a) {
			return l
		}
	}
	t.Fatalf("no %s-%s link", a, b)
	return nil
}

// probe injects one uplink packet of ue at gA and returns its traversal.
func (f *lifeFixture) probe(t *testing.T, ue string, prefix interdomain.PrefixID, qos int) dataplane.TraversalResult {
	t.Helper()
	res, err := f.net.Inject("S1", f.radioA.Port, &dataplane.Packet{UE: ue, DstPrefix: string(prefix), QoS: qos})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (f *lifeFixture) totalRules() int {
	n := 0
	for _, sw := range f.net.Switches() {
		n += sw.Table.Len()
	}
	return n
}

func (f *lifeFixture) attach(t testing.TB, req BearerRequest) *UERecord {
	t.Helper()
	rec, err := f.leaf.HandleBearerRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// After any number of setup/teardown cycles the path table, the owner map
// and the data plane hold the live bearers' paths and nothing else.
func TestPathTableTracksLiveBearers(t *testing.T) {
	f := buildLifeFixture(t, false)
	const live, churn = 5, 40
	for i := 0; i < live; i++ {
		f.attach(t, BearerRequest{UE: fmt.Sprintf("live%d", i), BS: "b1", Prefix: "pfx"})
	}
	liveRules := f.totalRules()
	var released PathID
	for i := 0; i < churn; i++ {
		ue := fmt.Sprintf("churn%d", i)
		rec := f.attach(t, BearerRequest{UE: ue, BS: "b2", Prefix: "pfx2"})
		released = rec.PathID
		var err error
		if i%2 == 0 {
			err = f.leaf.DeactivateBearer(ue)
		} else {
			err = f.leaf.Detach(ue)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := f.leaf.PathTableSize(); got != live {
			t.Fatalf("cycle %d: path table holds %d records, want the %d live ones", i, got, live)
		}
	}
	if _, ok := f.leaf.Path(released); ok {
		t.Fatalf("released path %d still in the table", released)
	}
	if got := len(f.leaf.PathOwners()); got != live {
		t.Fatalf("PathOwners lists %d owners, want %d", got, live)
	}
	if got := f.leaf.NumPaths(); got != live {
		t.Fatalf("NumPaths = %d, want %d", got, live)
	}
	if got := f.totalRules(); got != liveRules {
		t.Fatalf("rules = %d, want the live bearers' %d", got, liveRules)
	}
}

// An inter-region handover leaves exactly the new path at the ancestor: the
// source leaf's path and the in-flight transfer path are both forgotten.
func TestInterRegionHandoverFreesOldAndTransferPaths(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	const n = 6
	for i := 0; i < n; i++ {
		ue := fmt.Sprintf("u%d", i)
		if _, err := f.l1.HandleBearerRequest(BearerRequest{UE: ue, BS: "b1", Prefix: "pfxNear"}); err != nil {
			t.Fatal(err)
		}
		if err := f.l1.Handover(ue, "gB", "b3"); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.l1.PathTableSize(); got != 0 {
		t.Fatalf("source leaf still holds %d path records", got)
	}
	if got := f.root.PathTableSize(); got != n {
		t.Fatalf("root holds %d path records, want %d (one per moved bearer, no transfer paths)", got, n)
	}
	for i := 0; i < n; i++ {
		if err := f.l1.Detach(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.root.PathTableSize(); got != 0 {
		t.Fatalf("root holds %d path records after detach", got)
	}
}

// Release is idempotent for an ID the controller issued and an error for
// one it never did; the repeat release programs nothing.
func TestTeardownReleasedPathIsNoop(t *testing.T) {
	f := buildLifeFixture(t, true)
	rec := f.attach(t, BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx"})
	base := connFlowMods.Value()
	if err := f.leaf.TeardownPath(rec.PathID, nil); err != nil {
		t.Fatal(err)
	}
	first := connFlowMods.Value()
	if first == base {
		t.Fatal("first release sent no deletes")
	}
	if n := f.totalRules(); n != 0 {
		t.Fatalf("%d rules survive the release", n)
	}
	if err := f.leaf.TeardownPath(rec.PathID, nil); err != nil {
		t.Fatalf("repeat release of an issued id: %v", err)
	}
	if got := connFlowMods.Value(); got != first {
		t.Fatalf("repeat release sent %d FlowMods, want none", got-first)
	}
	for _, id := range []PathID{rec.PathID + 1, 0, -1} {
		if err := f.leaf.TeardownPath(id, nil); err == nil {
			t.Fatalf("release of never-issued id %d must fail", id)
		}
	}
}

// A same-group handover and a repeat attach move nothing in the core: the
// bearer keeps its path and nothing is sent southbound, yet both are
// counted as handled.
func TestSameGroupHandoverKeepsPath(t *testing.T) {
	f := buildLifeFixture(t, true)
	first := f.attach(t, BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx"})
	flowmods, barriers := connFlowMods.Value(), connBarriers.Value()
	reused := pathsReused.Value()
	rules := f.totalRules()

	if err := f.leaf.Handover("u1", "gA", "b2"); err != nil {
		t.Fatal(err)
	}
	row, _ := f.leaf.UE("u1")
	if row.PathID != first.PathID || row.BS != "b2" || !row.Active {
		t.Fatalf("row after same-group handover: %+v, want path %d kept at b2", row, first.PathID)
	}
	again := f.attach(t, BearerRequest{UE: "u1", BS: "b2", Prefix: "pfx"})
	if again.PathID != first.PathID || again.BS != "b2" || again.HandledBy != PathOwner(f.leaf) {
		t.Fatalf("repeat attach returned %+v, want path %d kept", again, first.PathID)
	}

	if got := connFlowMods.Value() - flowmods; got != 0 {
		t.Fatalf("no-op moves sent %d FlowMods", got)
	}
	if got := connBarriers.Value() - barriers; got != 0 {
		t.Fatalf("no-op moves sent %d barriers", got)
	}
	if got := pathsReused.Value() - reused; got != 2 {
		t.Fatalf("core.pathsetup.reused rose by %d, want 2", got)
	}
	st := f.leaf.StatsSnapshot()
	if st.BearersHandled != 3 || st.HandoversHandled != 1 {
		t.Fatalf("handled counters: bearers=%d handovers=%d, want 3/1", st.BearersHandled, st.HandoversHandled)
	}
	if f.leaf.PathTableSize() != 1 || f.totalRules() != rules {
		t.Fatalf("table=%d rules=%d, want 1/%d", f.leaf.PathTableSize(), f.totalRules(), rules)
	}
	if res := f.probe(t, "u1", "pfx", 0); res.Disposition != dataplane.DispEgressed {
		t.Fatalf("kept path does not forward: %v", res.Disposition)
	}
}

// Every request that does move something — or finds its path broken —
// replaces the path make-before-break: a new ID, the old record forgotten,
// and traffic on the route the request resolved to.
func TestBearerPathReplacedWhenItMoves(t *testing.T) {
	via := func(res dataplane.TraversalResult) dataplane.DeviceID { return res.Packet.Path()[1] }
	cases := []struct {
		name string
		// prepare runs after u1 attached at b1 / pfx / QoS 0 / no demand.
		prepare func(t *testing.T, f *lifeFixture, old PathID)
		next    BearerRequest
		wantVia dataplane.DeviceID
	}{
		{name: "idle bearer",
			prepare: func(t *testing.T, f *lifeFixture, _ PathID) {
				if err := f.leaf.DeactivateBearer("u1"); err != nil {
					t.Fatal(err)
				}
			},
			next: BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx"}, wantVia: "S2"},
		{name: "other prefix", next: BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx2"}, wantVia: "S2"},
		{name: "other QoS", next: BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx", QoS: 3}, wantVia: "S2"},
		{name: "other demand",
			next:    BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx", Constraints: routing.Constraints{MinBandwidth: 10}},
			wantVia: "S2"},
		{name: "other group", next: BearerRequest{UE: "u1", BS: "b3", Prefix: "pfx"}},
		{name: "inactive failed-repair record",
			prepare: func(t *testing.T, f *lifeFixture, old PathID) {
				arms := []*dataplane.Link{f.link(t, "S1", "S2"), f.link(t, "S1", "S3")}
				for _, l := range arms {
					f.net.SetLinkState(l, false)
				}
				ref := arms[0].A
				if ref.Dev != "S1" {
					ref = arms[0].B
				}
				if _, failed := f.leaf.RepairPaths(ref); len(failed) != 1 {
					t.Fatalf("failed = %v, want the one path", failed)
				}
				if rec, ok := f.leaf.Path(old); !ok || rec.Active {
					t.Fatalf("unrepairable path: ok=%v active=%v, want an inactive record", ok, rec.Active)
				}
				for _, l := range arms {
					f.net.SetLinkState(l, true)
				}
			},
			next: BearerRequest{UE: "u1", BS: "b2", Prefix: "pfx"}, wantVia: "S2"},
		{name: "route changed by a link failure",
			prepare: func(t *testing.T, f *lifeFixture, _ PathID) {
				// Port-status only, no repair: the record still names the
				// route through the dead link.
				f.net.SetLinkState(f.link(t, "S1", "S2"), false)
			},
			next: BearerRequest{UE: "u1", BS: "b2", Prefix: "pfx"}, wantVia: "S3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := buildLifeFixture(t, false)
			old := f.attach(t, BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx"})
			if tc.prepare != nil {
				tc.prepare(t, f, old.PathID)
			}
			reused := pathsReused.Value()
			rec := f.attach(t, tc.next)
			if rec.PathID == old.PathID {
				t.Fatalf("path %d kept, want a replacement", old.PathID)
			}
			if got := pathsReused.Value(); got != reused {
				t.Fatal("request counted as a reuse")
			}
			if _, ok := f.leaf.Path(old.PathID); ok {
				t.Fatalf("replaced path %d still in the table", old.PathID)
			}
			if cur, ok := f.leaf.Path(rec.PathID); !ok || !cur.Active {
				t.Fatalf("replacement path: ok=%v active=%v", ok, cur.Active)
			}
			if got := f.leaf.PathTableSize(); got != 1 {
				t.Fatalf("path table holds %d records, want 1", got)
			}
			if tc.wantVia == "" {
				return // the bearer left gA; nothing to probe there
			}
			res := f.probe(t, "u1", tc.next.Prefix, tc.next.QoS)
			if res.Disposition != dataplane.DispEgressed || via(res) != tc.wantVia {
				t.Fatalf("probe: %v via %v, want egress via %s", res.Disposition, res.Packet.Path(), tc.wantVia)
			}
		})
	}
}

// A path an ancestor owns is never kept by the leaf: the leaf cannot see
// the ancestor's record, so a repeat request re-delegates and the ancestor
// ends up holding exactly the new path.
func TestAncestorOwnedPathIsReplaced(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	first, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u1", BS: "b1", Prefix: "pfxFar"})
	if err != nil {
		t.Fatal(err)
	}
	if first.HandledBy.OwnerID() != "root" {
		t.Fatalf("precondition: path owned by %s", first.HandledBy.OwnerID())
	}
	if err := f.l1.Handover("u1", "gA", "b2"); err != nil {
		t.Fatal(err)
	}
	row, _ := f.l1.UE("u1")
	if row.PathID == first.PathID {
		t.Fatalf("delegated path %d kept across the handover", first.PathID)
	}
	if _, ok := f.root.Path(first.PathID); ok {
		t.Fatal("replaced delegated path still in the root's table")
	}
	if got := f.root.PathTableSize(); got != 1 {
		t.Fatalf("root holds %d path records, want 1", got)
	}
}

// Same-group handovers race a link failure on the very link their paths
// cross (meaningful under -race): the reuse check and the repair both work
// on the path records, a replaced path can be torn down while its reroute
// is in flight, and when the dust settles every bearer forwards and
// nothing is left behind in the table or the data plane.
func TestConcurrentHandoversVsLinkFailure(t *testing.T) {
	f := buildLifeFixture(t, false)
	const ues, rounds, flaps = 16, 30, 12
	for i := 0; i < ues; i++ {
		f.attach(t, BearerRequest{UE: fmt.Sprintf("u%d", i), BS: "b1", Prefix: "pfx"})
	}
	var wg sync.WaitGroup
	for i := 0; i < ues; i++ {
		wg.Add(1)
		go func(ue string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				bs := dataplane.DeviceID("b2")
				if r%2 == 1 {
					bs = "b1"
				}
				if err := f.leaf.Handover(ue, "gA", bs); err != nil {
					t.Errorf("handover %s round %d: %v", ue, r, err)
					return
				}
			}
		}(fmt.Sprintf("u%d", i))
	}
	l := f.link(t, "S1", "S2")
	ref := l.A
	if ref.Dev != "S1" {
		ref = l.B
	}
	for i := 0; i < flaps; i++ {
		f.net.SetLinkState(l, false)
		f.leaf.HandleLinkFailure(ref.Dev, ref.Port)
		f.net.SetLinkState(l, true)
	}
	wg.Wait()

	// One quiet handover round: a setup that raced the last failure may
	// sit on the arm that was down at the time, which is a working path
	// again now; every bearer must forward either way.
	for i := 0; i < ues; i++ {
		ue := fmt.Sprintf("u%d", i)
		if err := f.leaf.Handover(ue, "gA", "b1"); err != nil {
			t.Fatal(err)
		}
		row, _ := f.leaf.UE(ue)
		if rec, ok := f.leaf.Path(row.PathID); !ok || !rec.Active {
			t.Fatalf("%s: path %d ok=%v active=%v", ue, row.PathID, ok, rec.Active)
		}
		if res := f.probe(t, ue, "pfx", 0); res.Disposition != dataplane.DispEgressed {
			t.Fatalf("%s does not forward: %v", ue, res.Disposition)
		}
	}
	if got := f.leaf.PathTableSize(); got != ues {
		t.Fatalf("path table holds %d records, want %d", got, ues)
	}
	owners := f.leaf.PathOwners()
	for _, sw := range f.net.Switches() {
		for _, r := range sw.Table.Rules() {
			if info, ok := owners[r.Owner]; !ok || r.Version != info.Version {
				t.Fatalf("orphan rule on %s: %+v (live record: %+v, %v)", sw.ID, r, info, ok)
			}
		}
	}
	for i := 0; i < ues; i++ {
		if err := f.leaf.Detach(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if f.leaf.PathTableSize() != 0 || f.totalRules() != 0 {
		t.Fatalf("after detach: %d records, %d rules", f.leaf.PathTableSize(), f.totalRules())
	}
}

// hopLink wraps a controller's ParentLink the way the wire does: the owner
// of every answered path becomes a proxy that releases it through the
// child's TeardownOwnedPath, one TeardownOwned hop per level. It logs the
// transfer paths answered to the child and every hop.
type hopLink struct {
	ParentLink
	child *Controller
	log   *hopLog
}

type hopLog struct {
	mu sync.Mutex
	// transfers lists the transfer IDs answered to each controller;
	// hops lists the controller of each TeardownOwned, in call order.
	// Both guarded by mu.
	transfers map[string][]PathID
	hops      []string
}

func (l hopLink) DelegateBearer(req RouteRequest, match dataplane.Match, demand float64) (PathID, PathOwner, error) {
	id, owner, err := l.ParentLink.DelegateBearer(req, match, demand)
	if err != nil {
		return 0, nil, err
	}
	return id, proxyOwner{id: owner.OwnerID(), child: l.child}, nil
}

func (l hopLink) InterRegionHandover(req HandoverRequest) (PathID, PathID, PathOwner, error) {
	path, transfer, owner, err := l.ParentLink.InterRegionHandover(req)
	if err != nil {
		return 0, 0, nil, err
	}
	l.log.mu.Lock()
	l.log.transfers[l.child.ID] = append(l.log.transfers[l.child.ID], transfer)
	l.log.mu.Unlock()
	return path, transfer, proxyOwner{id: owner.OwnerID(), child: l.child}, nil
}

func (l hopLink) TeardownOwned(owner string, id PathID, then func(error)) error {
	l.log.mu.Lock()
	l.log.hops = append(l.log.hops, l.child.ID)
	l.log.mu.Unlock()
	return l.ParentLink.TeardownOwned(owner, id, then)
}

// proxyOwner is a PathOwner known only by ID, as a wire child knows an
// ancestor: releases climb from child.
type proxyOwner struct {
	id    string
	child *Controller
}

func (o proxyOwner) OwnerID() string { return o.id }

func (o proxyOwner) TeardownPath(id PathID, then func(error)) error {
	return o.child.TeardownOwnedPath(o.id, id, then)
}

func (o proxyOwner) Path(PathID) (PathRecord, bool) { return PathRecord{}, false }

// At depth 3 the two G-BSes meet only at the root. The transfer path's ID
// crosses the middle controller unchanged, each release climbs two
// TeardownOwned hops (leaf, then middle) to the root, and after every
// handover the root holds the moved bearers' new paths and nothing else.
func TestThreeLevelInterRegionHandoverReleasesAtRoot(t *testing.T) {
	net := dataplane.NewNetwork()
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3", "S4"} {
		net.AddSwitch(id)
	}
	for _, pair := range [][2]dataplane.DeviceID{{"S1", "S2"}, {"S2", "S3"}, {"S3", "S4"}} {
		if _, err := net.Connect(pair[0], pair[1], 5*timeMs, 1000); err != nil {
			t.Fatal(err)
		}
	}
	rpA, _ := net.AddRadioPort("S1", "gA")
	rpB, _ := net.AddRadioPort("S3", "gB")
	ep, _ := net.AddEgress("E1", "S4", "isp")
	h, err := NewThreeLevel(net, "root", map[string][]LeafSpec{
		"P1": {
			{ID: "L1", Switches: []dataplane.DeviceID{"S1"},
				Radios: []reca.RadioAttachment{
					{ID: "gA", Attach: dataplane.PortRef{Dev: "S1", Port: rpA.ID},
						Border: true, Constituents: []dataplane.DeviceID{"gA"}},
				},
				BSGroup: map[dataplane.DeviceID]dataplane.DeviceID{"b1": "gA"}},
			{ID: "L2", Switches: []dataplane.DeviceID{"S2"}},
		},
		"P2": {
			{ID: "L3", Switches: []dataplane.DeviceID{"S3", "S4"},
				Radios: []reca.RadioAttachment{
					{ID: "gB", Attach: dataplane.PortRef{Dev: "S3", Port: rpB.ID},
						Border: true, Constituents: []dataplane.DeviceID{"gB"}},
				},
				BSGroup: map[dataplane.DeviceID]dataplane.DeviceID{"b3": "gB"}},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l1, p1, l3, root := h.Controller("L1"), h.Controller("P1"), h.Controller("L3"), h.Root
	l3.AddInterdomainRoutes([]interdomain.Route{
		{Prefix: "pfx", Egress: "E1", EgressSwitch: "S4",
			Metrics: interdomain.Metrics{Hops: 5, RTT: 10 * timeMs}},
	}, dataplane.PortRef{Dev: "S4", Port: ep.Port})
	l3.PropagateInterdomain()
	log := &hopLog{transfers: make(map[string][]PathID)}
	for _, c := range []*Controller{l1, p1} {
		c.SetParentLink(hopLink{ParentLink: c.ParentLinkRef(), child: c, log: log})
	}

	live := make(map[PathID]bool)
	for i := 0; i < 4; i++ {
		ue := fmt.Sprintf("u%d", i)
		if _, err := l1.HandleBearerRequest(BearerRequest{UE: ue, BS: "b1", Prefix: "pfx"}); err != nil {
			t.Fatal(err)
		}
		log.mu.Lock()
		log.hops = nil
		log.mu.Unlock()
		if err := l1.Handover(ue, "gB", "b3"); err != nil {
			t.Fatal(err)
		}
		if err := CheckNoOrphanRules(net, h.All); err != nil {
			t.Fatalf("after handover %d: %v", i, err)
		}
		log.mu.Lock()
		leafX, midX, hops := log.transfers["L1"], log.transfers["P1"], log.hops
		log.mu.Unlock()
		if len(leafX) != i+1 || len(midX) != i+1 || leafX[i] == 0 || leafX[i] != midX[i] {
			t.Fatalf("handover %d: transfer IDs answered to P1 %v, to L1 %v; want one non-zero ID, unchanged", i, midX, leafX)
		}
		if want := []string{"L1", "P1", "L1", "P1"}; !slices.Equal(hops, want) {
			t.Fatalf("handover %d: releases climbed through %v, want %v (old and transfer, two hops each)", i, hops, want)
		}
		if _, ok := root.Path(leafX[i]); ok {
			t.Fatalf("handover %d: transfer path %d outlived the handover", i, leafX[i])
		}
		row, _ := l1.UE(ue)
		if row.HandledBy.OwnerID() != root.ID {
			t.Fatalf("handover %d: new path owned by %s, want the root", i, row.HandledBy.OwnerID())
		}
		live[row.PathID] = true
		for id := range live {
			if _, ok := root.Path(id); !ok {
				t.Fatalf("handover %d: new path %d is gone", i, id)
			}
		}
		if n := root.PathTableSize(); n != len(live) {
			t.Fatalf("handover %d: root holds %d path records, want the %d new paths alone", i, n, len(live))
		}
	}
	if n := l1.PathTableSize() + p1.PathTableSize(); n != 0 {
		t.Fatalf("leaf and middle hold %d path records", n)
	}
}
