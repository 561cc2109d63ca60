package core

import (
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/pathimpl"
	"repro/internal/reca"
)

// fig5 builds the Fig. 5 scenario: two leaf regions under a root.
//
//	Region L1: S1 (group gA on a radio port) — S2 (egress E-near)
//	Region L2: S3 (group gB on a radio port) — S4 (egress E-far)
//	Cross-region link: S2 — S3.
type fig5 struct {
	net        *dataplane.Network
	h          *Hierarchy
	l1, l2     *Controller
	root       *Controller
	radioA     dataplane.PortRef
	radioB     dataplane.PortRef
	nearEgress *dataplane.EgressPoint
	farEgress  *dataplane.EgressPoint
}

func buildFig5(t *testing.T, mode pathimpl.Mode) *fig5 {
	t.Helper()
	net := dataplane.NewNetwork()
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3", "S4"} {
		net.AddSwitch(id)
	}
	mustLink := func(a, b dataplane.DeviceID) {
		if _, err := net.Connect(a, b, 5*time.Millisecond, 1000); err != nil {
			t.Fatal(err)
		}
	}
	mustLink("S1", "S2")
	mustLink("S2", "S3") // cross-region
	mustLink("S3", "S4")

	rpA, err := net.AddRadioPort("S1", "gA")
	if err != nil {
		t.Fatal(err)
	}
	rpB, err := net.AddRadioPort("S3", "gB")
	if err != nil {
		t.Fatal(err)
	}
	near, err := net.AddEgress("E-near", "S2", "isp-near")
	if err != nil {
		t.Fatal(err)
	}
	far, err := net.AddEgress("E-far", "S4", "isp-far")
	if err != nil {
		t.Fatal(err)
	}

	f := &fig5{
		net:        net,
		radioA:     dataplane.PortRef{Dev: "S1", Port: rpA.ID},
		radioB:     dataplane.PortRef{Dev: "S3", Port: rpB.ID},
		nearEgress: near,
		farEgress:  far,
	}
	h, err := NewTwoLevel(net, "root", []LeafSpec{
		{
			ID:       "L1",
			Switches: []dataplane.DeviceID{"S1", "S2"},
			Radios: []reca.RadioAttachment{
				{ID: "gA", Attach: f.radioA, Border: true, Constituents: []dataplane.DeviceID{"gA"}},
			},
			BSGroup: map[dataplane.DeviceID]dataplane.DeviceID{"b1": "gA", "b2": "gA"},
		},
		{
			ID:       "L2",
			Switches: []dataplane.DeviceID{"S3", "S4"},
			Radios: []reca.RadioAttachment{
				{ID: "gB", Attach: f.radioB, Border: true, Constituents: []dataplane.DeviceID{"gB"}},
			},
			BSGroup: map[dataplane.DeviceID]dataplane.DeviceID{"b3": "gB"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.h = h
	f.l1, f.l2, f.root = h.Leaves[0], h.Leaves[1], h.Root
	f.l1.Mode = mode
	f.l2.Mode = mode
	f.root.Mode = mode

	// Interdomain: prefix pfxNear only via E-near (L1), pfxFar only via
	// E-far (L2).
	f.l1.AddInterdomainRoutes([]interdomain.Route{
		{Prefix: "pfxNear", Egress: "E-near", EgressSwitch: "S2",
			Metrics: interdomain.Metrics{Hops: 10, RTT: 20 * time.Millisecond}},
	}, dataplane.PortRef{Dev: "S2", Port: near.Port})
	f.l2.AddInterdomainRoutes([]interdomain.Route{
		{Prefix: "pfxFar", Egress: "E-far", EgressSwitch: "S4",
			Metrics: interdomain.Metrics{Hops: 8, RTT: 16 * time.Millisecond}},
	}, dataplane.PortRef{Dev: "S4", Port: far.Port})
	f.l1.PropagateInterdomain()
	f.l2.PropagateInterdomain()
	return f
}

func TestBootstrapLeafDiscovery(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	// L1 discovers exactly its intra-region link S1-S2.
	if got := f.l1.NIB.NumLinks(); got != 1 {
		t.Fatalf("L1 links = %d", got)
	}
	if got := f.l2.NIB.NumLinks(); got != 1 {
		t.Fatalf("L2 links = %d", got)
	}
	l := f.l1.NIB.Links()[0]
	if l.Latency != 5*time.Millisecond {
		t.Fatalf("discovered link latency = %v (meta not carried)", l.Latency)
	}
	if f.l1.StatsSnapshot().LinksDiscovered == 0 {
		t.Fatal("discovery counter")
	}
}

func TestBootstrapRootDiscoversCrossLink(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	if got := f.root.NIB.NumLinks(); got != 1 {
		t.Fatalf("root links = %d, want exactly the cross-region link", got)
	}
	l := f.root.NIB.Links()[0]
	devs := map[dataplane.DeviceID]bool{l.A.Dev: true, l.B.Dev: true}
	if !devs["GS-L1"] || !devs["GS-L2"] {
		t.Fatalf("cross link endpoints = %v", l)
	}
}

func TestAbstractionExposure(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	ab := f.l1.Abstraction()
	// L1 exposes: dangling cross port (S2→S3), external port (E-near),
	// G-BS attach port for gA.
	var cross, ext, radio int
	for _, p := range ab.GSwitch.Ports {
		switch {
		case p.GBS != "":
			radio++
		case p.External:
			ext++
		default:
			cross++
		}
	}
	if cross != 1 || ext != 1 || radio != 1 {
		t.Fatalf("L1 exposure: cross=%d ext=%d radio=%d", cross, ext, radio)
	}
	// fabric covers all pairs
	if ab.GSwitch.Fabric.Len() != 3 {
		t.Fatalf("fabric pairs = %d", ab.GSwitch.Fabric.Len())
	}
	// root sees both G-switches with G-BSes
	gs := f.root.NIB.Devices(dataplane.KindGSwitch)
	if len(gs) != 2 {
		t.Fatalf("root devices = %d", len(gs))
	}
	for _, d := range gs {
		if len(d.GBSes) != 1 || !d.GBSes[0].Border {
			t.Fatalf("G-BS exposure: %+v", d.GBSes)
		}
	}
}

func TestLocalBearerPath(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	rec, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u1", BS: "b1", Prefix: "pfxNear", QoS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.HandledBy != f.l1 {
		t.Fatalf("handled by %s, want L1", rec.HandledBy.OwnerID())
	}
	// Drive a packet from the UE through the radio port.
	pkt := &dataplane.Packet{UE: "u1", DstPrefix: "pfxNear", QoS: 1}
	res, err := f.net.Inject("S1", f.radioA.Port, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != dataplane.DispEgressed {
		t.Fatalf("disposition = %v (%v)", res.Disposition, pkt)
	}
	if res.EgressPort.Dev != "S2" {
		t.Fatalf("egressed at %v, want S2 (E-near)", res.EgressPort)
	}
	if res.MaxLabelDepth > 1 {
		t.Fatalf("label depth %d violates the single-label invariant", res.MaxLabelDepth)
	}
	if pkt.LabelDepth() != 0 {
		t.Fatal("packet must leave the WAN unlabeled")
	}
}

func TestDelegatedBearerPathCrossesRegions(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	rec, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u2", BS: "b1", Prefix: "pfxFar", QoS: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec.HandledBy != f.root {
		t.Fatalf("handled by %s, want root (delegation)", rec.HandledBy.OwnerID())
	}
	if f.l1.StatsSnapshot().DelegatedRequests == 0 {
		t.Fatal("delegation counter")
	}
	if f.l1.StatsSnapshot().RulesTranslated == 0 || f.l2.StatsSnapshot().RulesTranslated == 0 {
		t.Fatal("both leaves should have translated root rules")
	}

	pkt := &dataplane.Packet{UE: "u2", DstPrefix: "pfxFar", QoS: 2}
	res, err := f.net.Inject("S1", f.radioA.Port, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != dataplane.DispEgressed {
		t.Fatalf("disposition = %v (%v)", res.Disposition, pkt)
	}
	if res.EgressPort.Dev != "S4" {
		t.Fatalf("egressed at %v, want S4 (E-far)", res.EgressPort)
	}
	// The §4.3 invariant: recursive label swapping keeps depth ≤ 1 on
	// every physical link even for a root-implemented path.
	if res.MaxLabelDepth != 1 {
		t.Fatalf("label depth = %d, want 1", res.MaxLabelDepth)
	}
	if pkt.LabelDepth() != 0 {
		t.Fatal("packet must leave unlabeled")
	}
	// Path: S1 → S2 → S3 → S4.
	devs := pkt.Path()
	want := []dataplane.DeviceID{"S1", "S2", "S3", "S4"}
	if len(devs) != len(want) {
		t.Fatalf("path = %v", devs)
	}
	for i := range want {
		if devs[i] != want[i] {
			t.Fatalf("path = %v, want %v", devs, want)
		}
	}
}

func TestStackModeDepthGrows(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeStack)
	_, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u3", BS: "b1", Prefix: "pfxFar", QoS: 1})
	if err != nil {
		t.Fatal(err)
	}
	pkt := &dataplane.Packet{UE: "u3", DstPrefix: "pfxFar", QoS: 1}
	res, err := f.net.Inject("S1", f.radioA.Port, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != dataplane.DispEgressed || res.EgressPort.Dev != "S4" {
		t.Fatalf("stack-mode delivery broken: %v at %v (%v)", res.Disposition, res.EgressPort, pkt)
	}
	// Label stacking baseline: a 2-level path stacks 2 labels (§4.3).
	if res.MaxLabelDepth != 2 {
		t.Fatalf("stack-mode max depth = %d, want 2", res.MaxLabelDepth)
	}
	if pkt.LabelDepth() != 0 {
		t.Fatal("packet must still leave unlabeled")
	}
}

func TestBearerDeactivation(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	_, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u4", BS: "b1", Prefix: "pfxFar"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.l1.DeactivateBearer("u4"); err != nil {
		t.Fatal(err)
	}
	pkt := &dataplane.Packet{UE: "u4", DstPrefix: "pfxFar"}
	res, _ := f.net.Inject("S1", f.radioA.Port, pkt)
	if res.Disposition != dataplane.DispPunted {
		t.Fatalf("after teardown the packet should punt, got %v", res.Disposition)
	}
	if f.root.NumPaths() != 0 {
		t.Fatalf("root active paths = %d", f.root.NumPaths())
	}
}

func TestLocalVsGlobalOptimality(t *testing.T) {
	// §4.2: the root's path can beat the leaf's when the leaf's local
	// egress has worse external metrics. pfxBoth: terrible via E-near (20
	// ext hops), great via E-far (2 ext hops).
	f := buildFig5(t, pathimpl.ModeSwap)
	f.l1.AddInterdomainRoutes([]interdomain.Route{
		{Prefix: "pfxBoth", Egress: "E-near", EgressSwitch: "S2",
			Metrics: interdomain.Metrics{Hops: 20, RTT: 40 * time.Millisecond}},
	}, dataplane.PortRef{Dev: "S2", Port: f.nearEgress.Port})
	f.l2.AddInterdomainRoutes([]interdomain.Route{
		{Prefix: "pfxBoth", Egress: "E-far", EgressSwitch: "S4",
			Metrics: interdomain.Metrics{Hops: 2, RTT: 4 * time.Millisecond}},
	}, dataplane.PortRef{Dev: "S4", Port: f.farEgress.Port})
	f.l1.PropagateInterdomain()
	f.l2.PropagateInterdomain()

	// Leaf-local route: internal 1 hop + external 20 = 21 total.
	local, err := f.l1.Route(RouteRequest{From: f.radioA, Prefix: "pfxBoth"})
	if err != nil {
		t.Fatal(err)
	}
	if local.TotalHops != 21 {
		t.Fatalf("local total hops = %d", local.TotalHops)
	}
	// Root: internal 3 hops + external 2 = 5 total.
	gbsPort, ok := f.root.AttachOfGroup("gA")
	if !ok {
		t.Fatal("root has no gA attachment")
	}
	global, err := f.root.Route(RouteRequest{From: gbsPort, Prefix: "pfxBoth"})
	if err != nil {
		t.Fatal(err)
	}
	if global.TotalHops >= local.TotalHops {
		t.Fatalf("global (%d) should beat local (%d)", global.TotalHops, local.TotalHops)
	}
	if global.TotalHops != 5 {
		t.Fatalf("global total hops = %d, want 5", global.TotalHops)
	}

	// With an end-to-end constraint only the root can meet, the leaf
	// delegates (§4.2's example).
	res, err := f.l1.RouteRecursive(RouteRequest{From: f.radioA, Prefix: "pfxBoth", MaxTotalHops: 14})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResolvedBy != f.root {
		t.Fatalf("resolved by %s, want root", res.ResolvedBy.ID)
	}
}

func TestIntraRegionHandover(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	if _, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u5", BS: "b1", Prefix: "pfxNear"}); err != nil {
		t.Fatal(err)
	}
	// b2 is also in gA (same region)
	if err := f.l1.Handover("u5", "gA", "b2"); err != nil {
		t.Fatal(err)
	}
	rec, ok := f.l1.UE("u5")
	if !ok || rec.BS != "b2" {
		t.Fatalf("UE record after handover: %+v", rec)
	}
	if f.l1.StatsSnapshot().HandoversHandled != 1 {
		t.Fatal("handover counter")
	}
	// path still works
	pkt := &dataplane.Packet{UE: "u5", DstPrefix: "pfxNear"}
	res, _ := f.net.Inject("S1", f.radioA.Port, pkt)
	if res.Disposition != dataplane.DispEgressed {
		t.Fatalf("post-handover packet: %v", res.Disposition)
	}
}

func TestInterRegionHandover(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	if _, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u6", BS: "b1", Prefix: "pfxFar"}); err != nil {
		t.Fatal(err)
	}
	// target b3 lives in gB under L2: inter-region, mediated by the root
	if err := f.l1.Handover("u6", "gB", "b3"); err != nil {
		t.Fatal(err)
	}
	if f.root.StatsSnapshot().InterRegionHandovers != 1 {
		t.Fatal("root inter-region handover counter")
	}
	rec, _ := f.l1.UE("u6")
	if rec.BS != "b3" {
		t.Fatalf("UE BS after handover = %s", rec.BS)
	}
	// new downlink/uplink path starts at gB's radio port on S3
	pkt := &dataplane.Packet{UE: "u6", DstPrefix: "pfxFar"}
	res, _ := f.net.Inject("S3", f.radioB.Port, pkt)
	if res.Disposition != dataplane.DispEgressed || res.EgressPort.Dev != "S4" {
		t.Fatalf("post-handover path: %v at %v", res.Disposition, res.EgressPort)
	}
	if res.MaxLabelDepth > 1 {
		t.Fatalf("label invariant violated: %d", res.MaxLabelDepth)
	}
}

func TestHierarchyHelpers(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	if f.h.Controller("L1") != f.l1 || f.h.Controller("nope") != nil {
		t.Fatal("Controller lookup")
	}
	if f.h.LeafOf("S3") != f.l2 || f.h.LeafOf("ghost") != nil {
		t.Fatal("LeafOf lookup")
	}
	if len(f.root.Children()) != 2 {
		t.Fatal("Children")
	}
}

func TestDistributeInterdomain(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	tbl := interdomain.Generate(interdomain.GenParams{
		Seed: 1, NumPrefixes: 50, Snapshots: 1,
		Egresses: []interdomain.EgressSite{
			{ID: "E-near", Loc: dataplane.GeoPoint{X: 0, Y: 0}},
			{ID: "E-far", Loc: dataplane.GeoPoint{X: 1000, Y: 1000}},
		},
	})
	f.h.DistributeInterdomain(tbl, 0)
	pfx := tbl.Prefixes()[0]
	if len(f.l1.RouteOptions(pfx)) != 1 {
		t.Fatalf("L1 options = %v", f.l1.RouteOptions(pfx))
	}
	// root aggregates both egresses
	if len(f.root.RouteOptions(pfx)) != 2 {
		t.Fatalf("root options = %v", f.root.RouteOptions(pfx))
	}
	// old manually added routes are cleared
	if len(f.l1.RouteOptions("pfxNear")) != 0 {
		t.Fatal("ClearInterdomainRoutes not applied")
	}
}

func TestRouteErrors(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	if _, err := f.l1.Route(RouteRequest{From: f.radioA, Prefix: "unknown"}); err == nil {
		t.Fatal("unknown prefix should fail")
	}
	if _, err := f.root.RouteRecursive(RouteRequest{From: dataplane.PortRef{Dev: "GS-L1", Port: 99}, Prefix: "pfxNear"}); err == nil {
		t.Fatal("bad source should fail at root")
	}
	if _, err := f.l1.HandleBearerRequest(BearerRequest{UE: "x", BS: "ghost", Prefix: "pfxNear"}); err == nil {
		t.Fatal("unknown BS should fail")
	}
}

func TestLinkFailureUpdatesNIB(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	var intra *dataplane.Link
	for _, l := range f.net.Links() {
		if (l.A.Dev == "S1" && l.B.Dev == "S2") || (l.A.Dev == "S2" && l.B.Dev == "S1") {
			intra = l
		}
	}
	if intra == nil {
		t.Fatal("no S1-S2 link")
	}
	f.net.SetLinkState(intra, false)
	// The record is retained, marked down — a later port-up restores it
	// without re-discovery.
	if f.l1.NIB.NumLinks() != 1 {
		t.Fatalf("L1 should retain the failed link record, has %d", f.l1.NIB.NumLinks())
	}
	if f.l1.NIB.NumUpLinks() != 0 {
		t.Fatalf("failed link still marked up (%d up)", f.l1.NIB.NumUpLinks())
	}
	// routing now fails inside L1
	if _, err := f.l1.Route(RouteRequest{From: f.radioA, Prefix: "pfxNear"}); err == nil {
		t.Fatal("route over failed link should fail")
	}
	// …and comes back when the link does, with no discovery round.
	f.net.SetLinkState(intra, true)
	if f.l1.NIB.NumUpLinks() != 1 {
		t.Fatalf("restored link not marked up (%d up)", f.l1.NIB.NumUpLinks())
	}
	if _, err := f.l1.Route(RouteRequest{From: f.radioA, Prefix: "pfxNear"}); err != nil {
		t.Fatalf("route after restore: %v", err)
	}
}
