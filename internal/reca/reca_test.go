package reca

import (
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/nib"
)

// leafNIB models a small leaf region:
//
//	SW1(p1 dangling-cross, p2) -- SW2(p1, p2, p3 external-egress)
//
// plus SW3 (access switch) linked to SW1.
func leafNIB() *nib.NIB {
	n := nib.New()
	n.PutDevice(nib.Device{ID: "SW1", Kind: dataplane.KindSwitch, Ports: []nib.PortRecord{
		{ID: 1, Up: true},  // dangling: cross-region port
		{ID: 2, Up: true},  // link to SW2
		{ID: 3, Up: true},  // link to SW3
		{ID: 4, Up: false}, // down port: ignored
	}})
	n.PutDevice(nib.Device{ID: "SW2", Kind: dataplane.KindSwitch, Ports: []nib.PortRecord{
		{ID: 1, Up: true}, // link to SW1
		{ID: 2, Up: true, External: true, ExternalDomain: "isp-1"}, // egress
	}})
	n.PutDevice(nib.Device{ID: "SW3", Kind: dataplane.KindSwitch, Ports: []nib.PortRecord{
		{ID: 1, Up: true}, // link to SW1
	}})
	n.PutLink(nib.Link{A: dataplane.PortRef{Dev: "SW1", Port: 2}, B: dataplane.PortRef{Dev: "SW2", Port: 1},
		Latency: 5 * time.Millisecond, Bandwidth: 1000, Up: true})
	n.PutLink(nib.Link{A: dataplane.PortRef{Dev: "SW1", Port: 3}, B: dataplane.PortRef{Dev: "SW3", Port: 1},
		Latency: 5 * time.Millisecond, Bandwidth: 1000, Up: true})
	return n
}

func leafConfig() Config {
	return Config{
		Radios: []RadioAttachment{
			{ID: "G0001", Attach: dataplane.PortRef{Dev: "SW3"}, Border: true,
				Centroid: dataplane.GeoPoint{X: 10, Y: 10}},
			{ID: "G0002", Attach: dataplane.PortRef{Dev: "SW3"},
				Centroid: dataplane.GeoPoint{X: 20, Y: 20}},
			{ID: "G0003", Attach: dataplane.PortRef{Dev: "SW3"},
				Centroid: dataplane.GeoPoint{X: 40, Y: 40}},
		},
		Middleboxes: []MiddleboxAttachment{
			{ID: "FW1", Type: dataplane.MBFirewall, Attach: dataplane.PortRef{Dev: "SW2"}, Capacity: 100, Load: 20},
			{ID: "FW2", Type: dataplane.MBFirewall, Attach: dataplane.PortRef{Dev: "SW1"}, Capacity: 50, Load: 10},
		},
	}
}

func TestComputeBorderPorts(t *testing.T) {
	ab := Compute("C1", leafNIB(), leafConfig())
	if ab.GSwitch.ID != "GS-C1" {
		t.Fatalf("gswitch id = %s", ab.GSwitch.ID)
	}
	// Border ports: SW1.1 (dangling) and SW2.2 (external). Down SW1.4 and
	// linked ports hidden.
	var borders, external int
	for _, p := range ab.GSwitch.Ports {
		if p.GBS == "" && p.Underlying.Port != 0 {
			if p.External {
				external++
				if p.ExternalDomain != "isp-1" {
					t.Fatalf("external domain = %q", p.ExternalDomain)
				}
			} else if p.Underlying == (dataplane.PortRef{Dev: "SW1", Port: 1}) {
				borders++
			}
		}
	}
	if external != 1 {
		t.Fatalf("external ports = %d", external)
	}
	if borders != 1 {
		t.Fatalf("cross-region border ports = %d", borders)
	}
}

func TestComputeStats(t *testing.T) {
	ab := Compute("C1", leafNIB(), leafConfig())
	if ab.Stats.Devices != 3 {
		t.Fatalf("devices = %d", ab.Stats.Devices)
	}
	if ab.Stats.Links != 2 {
		t.Fatalf("links = %d", ab.Stats.Links)
	}
	if ab.Stats.Ports != 7 { // SW1: 4 (one down), SW2: 2, SW3: 1
		t.Fatalf("ports = %d", ab.Stats.Ports)
	}
	if ab.Stats.ExposedPorts != 2 {
		t.Fatalf("exposed = %d", ab.Stats.ExposedPorts)
	}
	pct := ab.Stats.ExposedPct()
	if pct < 28.5 || pct > 28.6 {
		t.Fatalf("exposed pct = %v", pct)
	}
	if (Stats{}).ExposedPct() != 0 {
		t.Fatal("zero ports pct")
	}
}

func TestComputeGBSExposureRule(t *testing.T) {
	ab := Compute("C1", leafNIB(), leafConfig())
	// one border G-BS 1:1 plus one aggregated internal G-BS
	if len(ab.GBSes) != 2 {
		t.Fatalf("gbses = %+v", ab.GBSes)
	}
	var border, internal *dataplane.GBSInfo
	for i := range ab.GBSes {
		if ab.GBSes[i].Border {
			border = &ab.GBSes[i]
		} else {
			internal = &ab.GBSes[i]
		}
	}
	if border == nil || border.ID != "G0001" {
		t.Fatalf("border gbs = %+v", border)
	}
	if len(border.Groups) != 1 || border.Groups[0] != "G0001" {
		t.Fatalf("border constituents = %v", border.Groups)
	}
	if internal == nil || internal.ID != "I-C1" {
		t.Fatalf("internal gbs = %+v", internal)
	}
	if len(internal.Groups) != 2 {
		t.Fatalf("internal constituents = %v", internal.Groups)
	}
	if internal.Centroid.X != 30 || internal.Centroid.Y != 30 {
		t.Fatalf("internal centroid = %+v", internal.Centroid)
	}
	if border.AttachPort == 0 || internal.AttachPort == 0 {
		t.Fatal("G-BS attach ports must be exposed on the G-switch")
	}
	gp := ab.GSwitch.PortByID(border.AttachPort)
	if gp == nil || gp.GBS != "G0001" {
		t.Fatalf("border attach gport = %+v", gp)
	}
}

func TestComputeGMiddleboxAggregation(t *testing.T) {
	ab := Compute("C1", leafNIB(), leafConfig())
	if len(ab.GMiddleboxes) != 1 {
		t.Fatalf("gmiddleboxes = %+v", ab.GMiddleboxes)
	}
	gm := ab.GMiddleboxes[0]
	if gm.Type != dataplane.MBFirewall {
		t.Fatalf("type = %v", gm.Type)
	}
	if gm.Capacity != 150 || gm.Load != 30 {
		t.Fatalf("aggregate = %v/%v", gm.Load, gm.Capacity)
	}
	if len(gm.AttachPorts) != 2 {
		t.Fatalf("attach ports = %v", gm.AttachPorts)
	}
}

func TestComputeFabricMetrics(t *testing.T) {
	ab := Compute("C1", leafNIB(), leafConfig())
	fabric := ab.GSwitch.Fabric
	if fabric == nil || fabric.Len() == 0 {
		t.Fatal("no fabric")
	}
	// Find the cross-region border port (SW1.1) and external port (SW2.2).
	var crossPort, extPort dataplane.PortID
	for _, p := range ab.GSwitch.Ports {
		switch p.Underlying {
		case dataplane.PortRef{Dev: "SW1", Port: 1}:
			crossPort = p.ID
		case dataplane.PortRef{Dev: "SW2", Port: 2}:
			extPort = p.ID
		}
	}
	m, ok := fabric.Get(crossPort, extPort)
	if !ok || !m.Reachable {
		t.Fatalf("cross-ext pair = %+v %v", m, ok)
	}
	// SW1 -> SW2 is one link
	if m.Hops != 1 || m.Latency != 5*time.Millisecond {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Bandwidth != 1000 {
		t.Fatalf("bandwidth = %v", m.Bandwidth)
	}
}

func TestComputeFabricCoversGBSPorts(t *testing.T) {
	ab := Compute("C1", leafNIB(), leafConfig())
	var gbsPort, extPort dataplane.PortID
	for _, p := range ab.GSwitch.Ports {
		if p.GBS == "G0001" {
			gbsPort = p.ID
		}
		if p.External {
			extPort = p.ID
		}
	}
	m, ok := ab.GSwitch.Fabric.Get(gbsPort, extPort)
	if !ok || !m.Reachable {
		t.Fatalf("gbs-egress pair missing: %+v %v", m, ok)
	}
	// SW3 -> SW1 -> SW2: 2 links
	if m.Hops != 2 {
		t.Fatalf("gbs-egress hops = %d", m.Hops)
	}
}

func TestComputeOnNonLeafView(t *testing.T) {
	// A root view: two child G-switches with fabrics and a cross link.
	n := nib.New()
	f1 := dataplane.NewVFabric()
	f1.Set(1, 2, dataplane.PathMetrics{Hops: 3, Latency: 15 * time.Millisecond, Bandwidth: 800, Reachable: true})
	n.PutDevice(nib.Device{ID: "GS-A", Kind: dataplane.KindGSwitch,
		Ports:  []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true, External: true, ExternalDomain: "isp"}},
		Fabric: f1})
	f2 := dataplane.NewVFabric()
	f2.Set(1, 2, dataplane.PathMetrics{Hops: 2, Latency: 10 * time.Millisecond, Bandwidth: 900, Reachable: true})
	n.PutDevice(nib.Device{ID: "GS-B", Kind: dataplane.KindGSwitch,
		Ports:  []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}},
		Fabric: f2})
	n.PutLink(nib.Link{A: dataplane.PortRef{Dev: "GS-A", Port: 1}, B: dataplane.PortRef{Dev: "GS-B", Port: 1},
		Latency: 5 * time.Millisecond, Bandwidth: 1000, Up: true})

	ab := Compute("root", n, Config{Radios: []RadioAttachment{
		{ID: "GBS-B1", Attach: dataplane.PortRef{Dev: "GS-B", Port: 2}, Border: true},
	}})
	if ab.Stats.Devices != 2 || ab.Stats.Links != 1 {
		t.Fatalf("stats = %+v", ab.Stats)
	}
	// GS-B.2 is a radio attach → not a border port; GS-A.2 is external.
	if ab.Stats.ExposedPorts != 1 {
		t.Fatalf("exposed = %d", ab.Stats.ExposedPorts)
	}
	// Fabric from the G-BS port to the external port prices the child
	// fabrics: GS-B(2→1: 2 hops) + link (1) + GS-A(1→2: 3 hops) = 6 hops.
	var gbsPort, extPort dataplane.PortID
	for _, p := range ab.GSwitch.Ports {
		if p.GBS != "" {
			gbsPort = p.ID
		} else if p.External {
			extPort = p.ID
		}
	}
	m, ok := ab.GSwitch.Fabric.Get(gbsPort, extPort)
	if !ok || !m.Reachable {
		t.Fatalf("pair missing")
	}
	if m.Hops != 6 {
		t.Fatalf("recursive hops = %d, want 6", m.Hops)
	}
	if m.Latency != 30*time.Millisecond {
		t.Fatalf("latency = %v", m.Latency)
	}
	if m.Bandwidth != 800 {
		t.Fatalf("bottleneck = %v", m.Bandwidth)
	}
}

func TestHiddenLinkPct(t *testing.T) {
	if got := HiddenLinkPct(100, 27); got != 73 {
		t.Fatalf("hidden pct = %v", got)
	}
	if HiddenLinkPct(0, 0) != 0 {
		t.Fatal("zero links")
	}
}

func TestComputeEmptyNIB(t *testing.T) {
	ab := Compute("C9", nib.New(), Config{})
	if len(ab.GSwitch.Ports) != 0 || len(ab.GBSes) != 0 || len(ab.GMiddleboxes) != 0 {
		t.Fatalf("empty abstraction = %+v", ab)
	}
	if ab.GSwitch.Fabric == nil {
		t.Fatal("fabric should exist even when empty")
	}
}

func TestUnreachablePairMarked(t *testing.T) {
	// Two disconnected switches, each with a dangling port.
	n := nib.New()
	n.PutDevice(nib.Device{ID: "SWA", Kind: dataplane.KindSwitch, Ports: []nib.PortRecord{{ID: 1, Up: true}}})
	n.PutDevice(nib.Device{ID: "SWB", Kind: dataplane.KindSwitch, Ports: []nib.PortRecord{{ID: 1, Up: true}}})
	ab := Compute("C1", n, Config{})
	if len(ab.GSwitch.Ports) != 2 {
		t.Fatalf("ports = %d", len(ab.GSwitch.Ports))
	}
	m, ok := ab.GSwitch.Fabric.Get(ab.GSwitch.Ports[0].ID, ab.GSwitch.Ports[1].ID)
	if !ok {
		t.Fatal("pair should be recorded")
	}
	if m.Reachable {
		t.Fatal("disconnected pair must be unreachable")
	}
}

// Compute builds the abstraction for controller ctrlID from its NIB view
// and configuration.
func Compute(ctrlID string, n *nib.NIB, cfg Config) Abstraction {
	return ComputeWithGraph(ctrlID, n, cfg, nil)
}
