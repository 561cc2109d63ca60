package core

import (
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/pathimpl"
	"repro/internal/reca"
	"repro/internal/routing"
)

// rerouteFixture builds a diamond inside one leaf region so two disjoint
// internal routes exist:
//
//	        S2
//	S1 <          > S4(E1)
//	        S3
type rerouteFixture struct {
	net   *dataplane.Network
	leaf  *Controller
	radio dataplane.PortRef
	g     *routing.Graph
	eport dataplane.PortID
}

func buildRerouteFixture(t *testing.T) *rerouteFixture {
	t.Helper()
	_ = pathimpl.ModeSwap
	net := dataplane.NewNetwork()
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3", "S4"} {
		net.AddSwitch(id)
	}
	link := func(a, b dataplane.DeviceID, lat time.Duration) {
		if _, err := net.Connect(a, b, lat, 1000); err != nil {
			t.Fatal(err)
		}
	}
	link("S1", "S2", 5*time.Millisecond)
	link("S2", "S4", 5*time.Millisecond)
	link("S1", "S3", 20*time.Millisecond)
	link("S3", "S4", 20*time.Millisecond)
	rp, _ := net.AddRadioPort("S1", "gA")
	ep, _ := net.AddEgress("E1", "S4", "isp")
	h, err := NewTwoLevel(net, "root", []LeafSpec{{
		ID:       "L1",
		Switches: []dataplane.DeviceID{"S1", "S2", "S3", "S4"},
		Radios: []reca.RadioAttachment{{
			ID: "gA", Attach: dataplane.PortRef{Dev: "S1", Port: rp.ID}, Border: true,
		}},
		BSGroup: map[dataplane.DeviceID]dataplane.DeviceID{"b1": "gA"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	leaf := h.Leaves[0]
	return &rerouteFixture{
		net: net, leaf: leaf,
		radio: dataplane.PortRef{Dev: "S1", Port: rp.ID},
		g:     leaf.Graph(),
		eport: ep.Port,
	}
}

func (f *rerouteFixture) pathVia(t *testing.T, obj routing.Objective) *routing.Path {
	t.Helper()
	p, err := f.g.ShortestPath(f.radio, dataplane.PortRef{Dev: "S4", Port: f.eport}, obj, routing.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (f *rerouteFixture) drive(t *testing.T) dataplane.TraversalResult {
	t.Helper()
	pkt := &dataplane.Packet{UE: "u1", DstPrefix: "pfx", QoS: -0}
	pkt.QoS = 0
	res, err := f.net.Inject("S1", f.radio.Port, pkt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReroutePathMakeBeforeBreak(t *testing.T) {
	f := buildRerouteFixture(t)
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}

	viaS2 := f.pathVia(t, routing.MinHops) // S1-S2-S4
	id, err := f.leaf.SetupPathWithDemand(match, viaS2, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := f.drive(t)
	if res.Disposition != dataplane.DispEgressed || res.Packet.Path()[1] != "S2" {
		t.Fatalf("initial path: %v via %v", res.Disposition, res.Packet.Path())
	}

	// New route via S3 (simulate policy change). Prepare: both versions
	// coexist, new classification wins.
	viaS3 := forceVia(t, f, "S3")
	if err := f.leaf.PrepareReroute(id, viaS3); err != nil {
		t.Fatal(err)
	}
	res = f.drive(t)
	if res.Disposition != dataplane.DispEgressed || res.Packet.Path()[1] != "S3" {
		t.Fatalf("after prepare: %v via %v", res.Disposition, res.Packet.Path())
	}
	// Old rules still present (reachability for in-flight versions).
	oldRules := 0
	for _, sw := range f.net.Switches() {
		for _, r := range sw.Table.Rules() {
			rec, _ := f.leaf.Path(id)
			if r.Owner == rec.Owner && r.Version < rec.Version {
				oldRules++
			}
		}
	}
	if oldRules == 0 {
		t.Fatal("prepare must keep the old version installed")
	}

	if err := f.leaf.CommitReroute(id); err != nil {
		t.Fatal(err)
	}
	res = f.drive(t)
	if res.Disposition != dataplane.DispEgressed || res.Packet.Path()[1] != "S3" {
		t.Fatalf("after commit: %v via %v", res.Disposition, res.Packet.Path())
	}
	// Old version gone.
	for _, sw := range f.net.Switches() {
		for _, r := range sw.Table.Rules() {
			rec, _ := f.leaf.Path(id)
			if r.Owner == rec.Owner && r.Version < rec.Version {
				t.Fatalf("stale rule survived commit: %v on %s", r, sw.ID)
			}
		}
	}
	if res.MaxLabelDepth > 1 {
		t.Fatal("label invariant across reroute")
	}
}

// forceVia computes the S1→egress path through a required middle switch by
// taking the long diamond arm.
func forceVia(t *testing.T, f *rerouteFixture, via dataplane.DeviceID) *routing.Path {
	t.Helper()
	// leg1: radio → S3 side; leg2: → egress. Build with MinLatency vs
	// MinHops: MinHops gives S2 (both 2 hops... S1-S2-S4 and S1-S3-S4 are
	// both 2 hops; tie-break by latency gives S2). To force S3, compute
	// legs explicitly and stitch.
	leg1, err := f.g.ShortestPath(f.radio, dataplane.PortRef{Dev: via, Port: 1}, routing.MinHops, routing.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	leg2, err := f.g.ShortestPath(dataplane.PortRef{Dev: via, Port: 1},
		dataplane.PortRef{Dev: "S4", Port: f.eport}, routing.MinHops, routing.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	stitched := &routing.Path{
		Points:        append(append([]dataplane.PortRef{}, leg1.Points...), leg2.Points[1:]...),
		LinkCrossings: append(append([]bool{}, leg1.LinkCrossings...), leg2.LinkCrossings...),
		Cost: routing.Cost{
			Hops:    leg1.Cost.Hops + leg2.Cost.Hops,
			Latency: leg1.Cost.Latency + leg2.Cost.Latency,
		},
	}
	return stitched
}

func TestReroutePathFull(t *testing.T) {
	f := buildRerouteFixture(t)
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	id, err := f.leaf.SetupPathWithDemand(match, f.pathVia(t, routing.MinHops), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.leaf.ReroutePath(id, forceVia(t, f, "S3")); err != nil {
		t.Fatal(err)
	}
	res := f.drive(t)
	if res.Disposition != dataplane.DispEgressed || res.Packet.Path()[1] != "S3" {
		t.Fatalf("rerouted path: %v via %v", res.Disposition, res.Packet.Path())
	}
}

func TestPrepareRerouteRollback(t *testing.T) {
	f := buildRerouteFixture(t)
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	id, err := f.leaf.SetupPathWithDemand(match, f.pathVia(t, routing.MinHops), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A path referencing an unknown device fails mid-install; the old
	// route must be restored.
	bad := &routing.Path{
		Points: []dataplane.PortRef{
			{Dev: "S1", Port: f.radio.Port}, {Dev: "S1", Port: 1},
			{Dev: "GHOST", Port: 1}, {Dev: "GHOST", Port: 2},
		},
		LinkCrossings: []bool{false, true, false},
	}
	if err := f.leaf.PrepareReroute(id, bad); err == nil {
		t.Fatal("expected failure")
	}
	res := f.drive(t)
	if res.Disposition != dataplane.DispEgressed {
		t.Fatalf("old path must survive failed reroute: %v", res.Disposition)
	}
	rec, _ := f.leaf.Path(id)
	if !rec.Active {
		t.Fatal("path should remain active after rollback")
	}
}

func TestRerouteUnknownPath(t *testing.T) {
	f := buildRerouteFixture(t)
	if err := f.leaf.ReroutePath(999, f.pathVia(t, routing.MinHops)); err == nil {
		t.Fatal("unknown path must fail")
	}
}
