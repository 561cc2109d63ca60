package routing

import (
	"math"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/nib"
)

// lineNIB builds SW1(p1,p2) -- SW2(p1,p2) -- SW3(p1,p2): links SW1.2-SW2.1
// and SW2.2-SW3.1, each 5ms/1000Mbps.
func lineNIB() *nib.NIB {
	n := nib.New()
	for _, id := range []dataplane.DeviceID{"SW1", "SW2", "SW3"} {
		n.PutDevice(nib.Device{ID: id, Kind: dataplane.KindSwitch,
			Ports: []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}}})
	}
	n.PutLink(nib.Link{A: dataplane.PortRef{Dev: "SW1", Port: 2}, B: dataplane.PortRef{Dev: "SW2", Port: 1},
		Latency: 5 * time.Millisecond, Bandwidth: 1000, Up: true})
	n.PutLink(nib.Link{A: dataplane.PortRef{Dev: "SW2", Port: 2}, B: dataplane.PortRef{Dev: "SW3", Port: 1},
		Latency: 5 * time.Millisecond, Bandwidth: 1000, Up: true})
	return n
}

func TestShortestPathLine(t *testing.T) {
	g := BuildGraph(lineNIB())
	p, err := g.ShortestPath(
		dataplane.PortRef{Dev: "SW1", Port: 1},
		dataplane.PortRef{Dev: "SW3", Port: 2},
		MinHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost.Hops != 2 {
		t.Fatalf("hops = %d", p.Cost.Hops)
	}
	if p.Cost.Latency != 10*time.Millisecond {
		t.Fatalf("latency = %v", p.Cost.Latency)
	}
	if p.Cost.Bottleneck != 1000 {
		t.Fatalf("bottleneck = %v", p.Cost.Bottleneck)
	}
	devs := p.Devices()
	if len(devs) != 3 || devs[0] != "SW1" || devs[2] != "SW3" {
		t.Fatalf("devices = %v", devs)
	}
	segs := p.Segments()
	if len(segs) != 3 {
		t.Fatalf("segments = %v", segs)
	}
	if segs[0] != (Segment{Dev: "SW1", InPort: 1, OutPort: 2}) {
		t.Fatalf("seg0 = %+v", segs[0])
	}
	if segs[1] != (Segment{Dev: "SW2", InPort: 1, OutPort: 2}) {
		t.Fatalf("seg1 = %+v", segs[1])
	}
	if segs[2] != (Segment{Dev: "SW3", InPort: 1, OutPort: 2}) {
		t.Fatalf("seg2 = %+v", segs[2])
	}
}

func TestNoPath(t *testing.T) {
	n := lineNIB()
	n.PutDevice(nib.Device{ID: "ISOLATED", Kind: dataplane.KindSwitch,
		Ports: []nib.PortRecord{{ID: 1, Up: true}}})
	g := BuildGraph(n)
	_, err := g.ShortestPath(
		dataplane.PortRef{Dev: "SW1", Port: 1},
		dataplane.PortRef{Dev: "ISOLATED", Port: 1},
		MinHops, Constraints{})
	if err != ErrNoPath {
		t.Fatalf("err = %v", err)
	}
	_, err = g.ShortestPath(
		dataplane.PortRef{Dev: "ghost", Port: 1},
		dataplane.PortRef{Dev: "SW1", Port: 1},
		MinHops, Constraints{})
	if err != ErrNoPath {
		t.Fatalf("unknown src err = %v", err)
	}
}

func TestDownLinkExcluded(t *testing.T) {
	n := lineNIB()
	n.PutLink(nib.Link{A: dataplane.PortRef{Dev: "SW1", Port: 2}, B: dataplane.PortRef{Dev: "SW2", Port: 1},
		Latency: 5 * time.Millisecond, Bandwidth: 1000, Up: false})
	g := BuildGraph(n)
	_, err := g.ShortestPath(
		dataplane.PortRef{Dev: "SW1", Port: 1},
		dataplane.PortRef{Dev: "SW3", Port: 2},
		MinHops, Constraints{})
	if err != ErrNoPath {
		t.Fatalf("path through down link: %v", err)
	}
}

// diamondNIB: SW1 -> {short: SW2 (fast link), long: SW3 -> SW4} -> SW5
// The 2-hop route has high latency, the 3-hop route low latency.
func diamondNIB() *nib.NIB {
	n := nib.New()
	mk := func(id dataplane.DeviceID, ports int) {
		var pr []nib.PortRecord
		for i := 1; i <= ports; i++ {
			pr = append(pr, nib.PortRecord{ID: dataplane.PortID(i), Up: true})
		}
		n.PutDevice(nib.Device{ID: id, Kind: dataplane.KindSwitch, Ports: pr})
	}
	mk("SW1", 3)
	mk("SW2", 2)
	mk("SW3", 2)
	mk("SW4", 2)
	mk("SW5", 3)
	link := func(a dataplane.DeviceID, ap dataplane.PortID, b dataplane.DeviceID, bp dataplane.PortID, lat time.Duration, bw float64) {
		n.PutLink(nib.Link{A: dataplane.PortRef{Dev: a, Port: ap}, B: dataplane.PortRef{Dev: b, Port: bp},
			Latency: lat, Bandwidth: bw, Up: true})
	}
	// short path: SW1.2 - SW2.1, SW2.2 - SW5.1 (50ms each, 100Mbps)
	link("SW1", 2, "SW2", 1, 50*time.Millisecond, 100)
	link("SW2", 2, "SW5", 1, 50*time.Millisecond, 100)
	// long path: SW1.3 - SW3.1, SW3.2 - SW4.1, SW4.2 - SW5.2 (5ms each, 1000Mbps)
	link("SW1", 3, "SW3", 1, 5*time.Millisecond, 1000)
	link("SW3", 2, "SW4", 1, 5*time.Millisecond, 1000)
	link("SW4", 2, "SW5", 2, 5*time.Millisecond, 1000)
	return n
}

func TestObjectives(t *testing.T) {
	g := BuildGraph(diamondNIB())
	src := dataplane.PortRef{Dev: "SW1", Port: 1}
	dst := dataplane.PortRef{Dev: "SW5", Port: 3}

	byHops, err := g.ShortestPath(src, dst, MinHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if byHops.Cost.Hops != 2 {
		t.Fatalf("min-hops path has %d hops", byHops.Cost.Hops)
	}

	byLat, err := g.ShortestPath(src, dst, MinLatency, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if byLat.Cost.Latency != 15*time.Millisecond || byLat.Cost.Hops != 3 {
		t.Fatalf("min-latency path = %+v", byLat.Cost)
	}
}

func TestConstraints(t *testing.T) {
	g := BuildGraph(diamondNIB())
	src := dataplane.PortRef{Dev: "SW1", Port: 1}
	dst := dataplane.PortRef{Dev: "SW5", Port: 3}

	// bandwidth constraint forces the long path
	p, err := g.ShortestPath(src, dst, MinHops, Constraints{MinBandwidth: 500})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost.Hops != 3 {
		t.Fatalf("bandwidth-constrained path hops = %d", p.Cost.Hops)
	}

	// max-hops excludes the long path, max-latency excludes the short one
	if _, err := g.ShortestPath(src, dst, MinHops, Constraints{MaxHops: 2, MaxLatency: 20 * time.Millisecond}); err != ErrNoPath {
		t.Fatalf("jointly infeasible constraints should fail: %v", err)
	}
	p, err = g.ShortestPath(src, dst, MinHops, Constraints{MaxLatency: 20 * time.Millisecond})
	if err != nil || p.Cost.Hops != 3 {
		t.Fatalf("latency-constrained: %v %+v", err, p)
	}
}

func TestGSwitchTraversalPricing(t *testing.T) {
	// GS1 with fabric 1<->2 (3 hops, 15ms), linked to SW9.
	n := nib.New()
	fabric := dataplane.NewVFabric()
	fabric.Set(1, 2, dataplane.PathMetrics{Hops: 3, Latency: 15 * time.Millisecond, Bandwidth: 500, Reachable: true})
	n.PutDevice(nib.Device{ID: "GS1", Kind: dataplane.KindGSwitch,
		Ports:  []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}},
		Fabric: fabric})
	n.PutDevice(nib.Device{ID: "SW9", Kind: dataplane.KindSwitch,
		Ports: []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}}})
	n.PutLink(nib.Link{A: dataplane.PortRef{Dev: "GS1", Port: 2}, B: dataplane.PortRef{Dev: "SW9", Port: 1},
		Latency: 5 * time.Millisecond, Bandwidth: 1000, Up: true})
	g := BuildGraph(n)
	p, err := g.ShortestPath(
		dataplane.PortRef{Dev: "GS1", Port: 1},
		dataplane.PortRef{Dev: "SW9", Port: 2},
		MinHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 hops inside GS1 + 1 link hop
	if p.Cost.Hops != 4 {
		t.Fatalf("hops = %d", p.Cost.Hops)
	}
	if p.Cost.Latency != 20*time.Millisecond {
		t.Fatalf("latency = %v", p.Cost.Latency)
	}
	if p.Cost.Bottleneck != 500 {
		t.Fatalf("bottleneck = %v", p.Cost.Bottleneck)
	}
}

func TestUnreachableFabricPairExcluded(t *testing.T) {
	n := nib.New()
	fabric := dataplane.NewVFabric()
	fabric.Set(1, 2, dataplane.PathMetrics{Reachable: false})
	n.PutDevice(nib.Device{ID: "GS1", Kind: dataplane.KindGSwitch,
		Ports:  []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}},
		Fabric: fabric})
	g := BuildGraph(n)
	if _, err := g.ShortestPath(
		dataplane.PortRef{Dev: "GS1", Port: 1},
		dataplane.PortRef{Dev: "GS1", Port: 2},
		MinHops, Constraints{}); err != ErrNoPath {
		t.Fatalf("unreachable fabric pair must not route: %v", err)
	}
}

// pairMetrics is the one-pair oracle MetricsFrom is checked against: the
// MinHops shortest path's cost from a to b, with the bottleneck bandwidth
// of that path, or an unreachable PathMetrics when no path exists.
func pairMetrics(g *Graph, a, b dataplane.PortRef) dataplane.PathMetrics {
	s, ok := g.nodes[a]
	if !ok {
		return dataplane.PathMetrics{}
	}
	d, ok := g.nodes[b]
	if !ok {
		return dataplane.PathMetrics{}
	}
	sc := g.scratchPool.Get().(*scratch)
	defer g.scratchPool.Put(sc)
	g.sssp(sc, s, d, MinHops, Constraints{}, false)
	if !sc.seen[d] {
		return dataplane.PathMetrics{}
	}
	// Same-device pairs traverse only the switch backplane; +Inf propagates
	// through the wire codec (IEEE-754 bits) and min() correctly, so it is
	// kept as-is.
	c := sc.dist[d]
	return dataplane.PathMetrics{
		Latency:   c.Latency,
		Hops:      c.Hops,
		Bandwidth: c.Bottleneck,
		Reachable: true,
	}
}

func TestPairMetrics(t *testing.T) {
	g := BuildGraph(lineNIB())
	m := pairMetrics(g,
		dataplane.PortRef{Dev: "SW1", Port: 1},
		dataplane.PortRef{Dev: "SW3", Port: 2})
	if !m.Reachable || m.Hops != 2 || m.Latency != 10*time.Millisecond || m.Bandwidth != 1000 {
		t.Fatalf("metrics = %+v", m)
	}
	// same-switch pair: reachable with infinite backplane bandwidth
	m2 := pairMetrics(g,
		dataplane.PortRef{Dev: "SW1", Port: 1},
		dataplane.PortRef{Dev: "SW1", Port: 2})
	if !m2.Reachable || m2.Hops != 0 || !math.IsInf(m2.Bandwidth, 1) {
		t.Fatalf("same-switch metrics = %+v", m2)
	}
	// unreachable
	n := lineNIB()
	n.PutDevice(nib.Device{ID: "X", Kind: dataplane.KindSwitch, Ports: []nib.PortRecord{{ID: 1, Up: true}}})
	m3 := pairMetrics(BuildGraph(n),
		dataplane.PortRef{Dev: "SW1", Port: 1},
		dataplane.PortRef{Dev: "X", Port: 1})
	if m3.Reachable {
		t.Fatal("unreachable pair reported reachable")
	}
}

func TestSameNodePath(t *testing.T) {
	g := BuildGraph(lineNIB())
	ref := dataplane.PortRef{Dev: "SW1", Port: 1}
	p, err := g.ShortestPath(ref, ref, MinHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost.Hops != 0 || len(p.Points) != 1 {
		t.Fatalf("trivial path = %+v", p)
	}
}

func TestGlobalVsLocalOptimality(t *testing.T) {
	// The §4.2 example: a leaf sees only its region (path via E2); the root
	// sees both regions via G-switch fabrics and finds the shorter exit.
	// Model: region 2 internal path costs 3 hops to E2; crossing to region
	// 1 costs 1 hop and E1 is right there.
	leafView := nib.New()
	leafView.PutDevice(nib.Device{ID: "SW2", Kind: dataplane.KindSwitch,
		Ports: []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}}})
	leafView.PutDevice(nib.Device{ID: "SW3", Kind: dataplane.KindSwitch,
		Ports: []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}}})
	leafView.PutDevice(nib.Device{ID: "SW4", Kind: dataplane.KindSwitch,
		Ports: []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}}})
	addLink := func(n *nib.NIB, a dataplane.DeviceID, ap dataplane.PortID, b dataplane.DeviceID, bp dataplane.PortID) {
		n.PutLink(nib.Link{A: dataplane.PortRef{Dev: a, Port: ap}, B: dataplane.PortRef{Dev: b, Port: bp},
			Latency: 5 * time.Millisecond, Bandwidth: 1000, Up: true})
	}
	addLink(leafView, "SW2", 2, "SW3", 1)
	addLink(leafView, "SW3", 2, "SW4", 1)
	leafPath, err := BuildGraph(leafView).ShortestPath(
		dataplane.PortRef{Dev: "SW2", Port: 1},
		dataplane.PortRef{Dev: "SW4", Port: 2}, // E2 egress
		MinHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}

	// Root view: GS1 (region 1, egress at port 2), GS2 (region 2, ingress
	// port 1 = the G-BS attach, cross port 3), cross-region link.
	rootView := nib.New()
	f1 := dataplane.NewVFabric()
	f1.Set(1, 2, dataplane.PathMetrics{Hops: 0, Latency: 0, Bandwidth: 1000, Reachable: true})
	rootView.PutDevice(nib.Device{ID: "GS1", Kind: dataplane.KindGSwitch,
		Ports: []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}}, Fabric: f1})
	f2 := dataplane.NewVFabric()
	f2.Set(1, 3, dataplane.PathMetrics{Hops: 0, Latency: 0, Bandwidth: 1000, Reachable: true})
	f2.Set(1, 2, dataplane.PathMetrics{Hops: 2, Latency: 10 * time.Millisecond, Bandwidth: 1000, Reachable: true})
	rootView.PutDevice(nib.Device{ID: "GS2", Kind: dataplane.KindGSwitch,
		Ports: []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}, {ID: 3, Up: true}}, Fabric: f2})
	addLink(rootView, "GS2", 3, "GS1", 1)

	rootPath, err := BuildGraph(rootView).ShortestPath(
		dataplane.PortRef{Dev: "GS2", Port: 1},
		dataplane.PortRef{Dev: "GS1", Port: 2}, // E1 egress
		MinHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if rootPath.Cost.Hops >= leafPath.Cost.Hops {
		t.Fatalf("root should beat leaf: root %d vs leaf %d hops", rootPath.Cost.Hops, leafPath.Cost.Hops)
	}
}

func TestLinkCrossingsAlternation(t *testing.T) {
	g := BuildGraph(lineNIB())
	p, err := g.ShortestPath(
		dataplane.PortRef{Dev: "SW1", Port: 1},
		dataplane.PortRef{Dev: "SW3", Port: 2},
		MinHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.LinkCrossings) != len(p.Points)-1 {
		t.Fatalf("crossings = %d points = %d", len(p.LinkCrossings), len(p.Points))
	}
	links := 0
	for _, c := range p.LinkCrossings {
		if c {
			links++
		}
	}
	if links != p.Cost.Hops {
		t.Fatalf("link crossings %d != hops %d", links, p.Cost.Hops)
	}
}

func TestMetricsFromMatchesPairMetrics(t *testing.T) {
	g := BuildGraph(diamondNIB())
	src := dataplane.PortRef{Dev: "SW1", Port: 1}
	row := g.MetricsFrom(src)
	for _, dst := range []dataplane.PortRef{
		{Dev: "SW5", Port: 3}, {Dev: "SW2", Port: 2}, {Dev: "SW4", Port: 1},
	} {
		want := pairMetrics(g, src, dst)
		got, ok := row[dst]
		if !ok || got.Hops != want.Hops || got.Latency != want.Latency {
			t.Fatalf("MetricsFrom(%v)[%v] = %+v ok=%v, want %+v", src, dst, got, ok, want)
		}
	}
	if g.MetricsFrom(dataplane.PortRef{Dev: "ghost", Port: 1}) != nil {
		t.Fatal("unknown source should be nil")
	}
}
