package core

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/pathimpl"
	"repro/internal/routing"
	"repro/internal/southbound"
)

// TestBandwidthAdmission: two 600 Mbps bearers cannot share a 1000 Mbps
// arm of the diamond — the second must take the other arm; a third is
// rejected when nothing fits.
func TestBandwidthAdmission(t *testing.T) {
	f := buildRerouteFixture(t) // diamond, 1000 Mbps links
	g := f.leaf.Graph()
	dst := dataplane.PortRef{Dev: "S4", Port: f.eport}

	setup := func(ue string) error {
		p, err := g.ShortestPath(f.radio, dst, routing.MinHops,
			routing.Constraints{MinBandwidth: 600})
		if err != nil {
			return err
		}
		match := dataplane.Match{InPort: dataplane.PortAny, UE: ue, QoS: -1}
		_, err = f.leaf.SetupPathWithDemand(match, p, 600)
		if err != nil {
			return err
		}
		// Refresh the NIB so the next routing decision sees the remaining
		// bandwidth (§3.2 update flow).
		f.leaf.RunDiscovery()
		g = f.leaf.Graph()
		return nil
	}

	if err := setup("u1"); err != nil {
		t.Fatalf("first bearer: %v", err)
	}
	if err := setup("u2"); err != nil {
		t.Fatalf("second bearer should fit on the other arm: %v", err)
	}
	// Both diamond arms now hold 600/1000: a third 600 Mbps path must fail
	// at the routing stage (no link with 600 free).
	if _, err := g.ShortestPath(f.radio, dst, routing.MinHops,
		routing.Constraints{MinBandwidth: 600}); err == nil {
		t.Fatal("third 600 Mbps bearer should be inadmissible")
	}

	// The arms really carry one reservation each.
	armsUsed := map[dataplane.DeviceID]bool{}
	for _, l := range f.net.Links() {
		if l.Available() < l.Bandwidth {
			armsUsed[l.A.Dev] = true
			armsUsed[l.B.Dev] = true
		}
	}
	if !armsUsed["S2"] || !armsUsed["S3"] {
		t.Fatalf("reservations should spread across both arms: %v", armsUsed)
	}
}

// TestReservationReleaseOnTeardown: tearing a path down returns its
// bandwidth.
func TestReservationReleaseOnTeardown(t *testing.T) {
	f := buildRerouteFixture(t)
	g := f.leaf.Graph()
	p, err := g.ShortestPath(f.radio, dataplane.PortRef{Dev: "S4", Port: f.eport},
		routing.MinHops, routing.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	id, err := f.leaf.SetupPathWithDemand(match, p, 900)
	if err != nil {
		t.Fatal(err)
	}
	reserved := 0
	for _, l := range f.net.Links() {
		if l.Available() < l.Bandwidth {
			reserved++
		}
	}
	if reserved == 0 {
		t.Fatal("no reservations taken")
	}
	if err := f.leaf.TeardownPath(id, nil); err != nil {
		t.Fatal(err)
	}
	for _, l := range f.net.Links() {
		if l.Available() != l.Bandwidth {
			t.Fatalf("leaked reservation on %v: %v free", l, l.Available())
		}
	}
}

// TestAdmissionFailureRollsBack: an over-subscribed install leaves no
// partial rules or reservations.
func TestAdmissionFailureRollsBack(t *testing.T) {
	f := buildRerouteFixture(t)
	g := f.leaf.Graph()
	p, err := g.ShortestPath(f.radio, dataplane.PortRef{Dev: "S4", Port: f.eport},
		routing.MinHops, routing.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	if _, err := f.leaf.SetupPathWithDemand(match, p, 5000); err == nil {
		t.Fatal("5 Gbps demand on 1 Gbps links must be rejected")
	}
	for _, sw := range f.net.Switches() {
		if sw.Table.Len() != 0 {
			t.Fatalf("partial rules left on %s", sw.ID)
		}
	}
	for _, l := range f.net.Links() {
		if l.Available() != l.Bandwidth {
			t.Fatalf("leaked reservation on %v", l)
		}
	}
}

// TestDemandTranslatesAcrossRegions: a delegated (root-implemented)
// bearer's demand reserves bandwidth in both leaf regions.
func TestDemandTranslatesAcrossRegions(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	_, err := f.l1.HandleBearerRequest(BearerRequest{
		UE: "u1", BS: "b1", Prefix: "pfxFar",
		Constraints: routing.Constraints{MinBandwidth: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	reservedLinks := 0
	for _, l := range f.net.Links() {
		if l.Available() == l.Bandwidth-400 {
			reservedLinks++
		}
	}
	// S1-S2 (L1), S2-S3 (cross), S3-S4 (L2) all carry the flow.
	if reservedLinks != 3 {
		t.Fatalf("reserved links = %d, want 3", reservedLinks)
	}
}

// TestRefreshFabricNotifiesOnDrift: reserving most of a region's internal
// bandwidth must push an updated vFabric to the parent once the drift
// crosses the threshold.
func TestRefreshFabricNotifiesOnDrift(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)

	fabricAtRoot := func() dataplane.PathMetrics {
		d, ok := f.root.NIB.Device(f.l1.GSwitchID())
		if !ok {
			t.Fatal("root lost GS-L1")
		}
		ab := f.l1.Abstraction()
		var gbsPort, crossPort dataplane.PortID
		for _, p := range ab.GSwitch.Ports {
			if p.GBS != "" {
				gbsPort = p.ID
			} else if !p.External {
				crossPort = p.ID
			}
		}
		m, ok := d.Fabric.Get(gbsPort, crossPort)
		if !ok {
			t.Fatal("pair missing at root")
		}
		return m
	}
	before := fabricAtRoot()

	// No drift yet: refresh must not notify.
	if f.l1.RefreshFabric(50) {
		t.Fatal("no-change refresh should not notify")
	}

	// Reserve 700 Mbps on L1's internal link, then refresh.
	var intra *dataplane.Link
	for _, l := range f.net.Links() {
		if (l.A.Dev == "S1" && l.B.Dev == "S2") || (l.A.Dev == "S2" && l.B.Dev == "S1") {
			intra = l
		}
	}
	if err := intra.Reserve(700); err != nil {
		t.Fatal(err)
	}
	if !f.l1.RefreshFabric(50) {
		t.Fatal("700 Mbps drift must notify the parent")
	}
	after := fabricAtRoot()
	if after.Bandwidth >= before.Bandwidth {
		t.Fatalf("root fabric bandwidth should drop: %v -> %v", before.Bandwidth, after.Bandwidth)
	}
	if after.Bandwidth != 300 {
		t.Fatalf("root sees %v Mbps, want 300", after.Bandwidth)
	}
	// The cross-region link view at the root is untouched (update in
	// place, no rediscovery needed).
	if f.root.NIB.NumLinks() != 1 {
		t.Fatalf("root links = %d", f.root.NIB.NumLinks())
	}
}

// TestConnDeviceAdmissionError: over the wire protocol, an inadmissible
// FlowAdd surfaces as an error on the controller side.
func TestConnDeviceAdmissionError(t *testing.T) {
	h := newConnHarness(t)
	dev := h.devs["S1"]
	rule := dataplane.Rule{
		Priority: 1,
		Match:    dataplane.Match{InPort: dataplane.PortAny, QoS: -1},
		Actions:  []dataplane.Action{dataplane.Output(1)},
		Owner:    "t",
		Demand:   5000, // 1 Gbps link
	}
	if err := dev.InstallRules([]dataplane.Rule{rule}); err == nil {
		t.Fatal("over-subscription must be refused over the wire")
	}
	if h.net.Switch("S1").Table.Len() != 0 {
		t.Fatal("refused rule must not be installed")
	}
	rule.Demand = 500
	if err := dev.InstallRules([]dataplane.Rule{rule}); err != nil {
		t.Fatal(err)
	}
	if err := dev.RemoveRules(southbound.FlowDeleteOwner, "t", 0); err != nil {
		t.Fatal(err)
	}
	if got := h.net.Links()[0].Available(); got != 1000 {
		t.Fatalf("reservation leaked over the wire: %v", got)
	}
}
