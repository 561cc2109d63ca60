package ltetrace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataplane"
)

func smallModel() *Model {
	return New(Params{Seed: 1, NumBS: 80, NumUEs: 10000, Hotspots: 3})
}

func TestHandoverGraphBasics(t *testing.T) {
	g := NewHandoverGraph()
	g.Add("a", "b", 5)
	g.Add("b", "a", 3) // same undirected edge
	if g.Weight("a", "b") != 8 {
		t.Fatalf("weight = %d", g.Weight("a", "b"))
	}
	g.Add("a", "a", 100) // self loops ignored
	g.Add("a", "c", 0)   // zero counts ignored
	if g.NumNodes() != 2 {
		t.Fatalf("nodes = %v", g.Nodes())
	}
	g.AddNode("iso")
	if g.NumNodes() != 3 {
		t.Fatal("isolated node not added")
	}
	if g.TotalWeight() != 8 {
		t.Fatalf("total = %d", g.TotalWeight())
	}
	if len(g.Edges()) != 1 {
		t.Fatalf("edges = %v", g.Edges())
	}
}

func TestHandoverGraphCloneMerge(t *testing.T) {
	g := NewHandoverGraph()
	g.Add("a", "b", 2)
	c := g.Clone()
	c.Add("a", "b", 3)
	if g.Weight("a", "b") != 2 {
		t.Fatal("clone aliases")
	}
	g.Merge(c)
	if g.Weight("a", "b") != 7 {
		t.Fatalf("merge weight = %d", g.Weight("a", "b"))
	}
}

func TestHandoverGraphRelabel(t *testing.T) {
	g := NewHandoverGraph()
	g.Add("a1", "a2", 5) // same group → internal, dropped
	g.Add("a1", "b1", 7) // cross-group
	grp := func(id dataplane.DeviceID) dataplane.DeviceID {
		return dataplane.DeviceID(id[:1])
	}
	r := g.Relabel(grp)
	if r.Weight("a", "b") != 7 {
		t.Fatalf("cross weight = %d", r.Weight("a", "b"))
	}
	if r.Weight("a", "a") != 0 {
		t.Fatal("internal edges must drop")
	}
	if r.NumNodes() != 2 {
		t.Fatalf("nodes = %v", r.Nodes())
	}
}

func TestNeighborWeights(t *testing.T) {
	g := NewHandoverGraph()
	g.Add("a", "b", 1)
	g.Add("a", "c", 2)
	g.Add("b", "c", 3)
	nw := g.NeighborWeights("a")
	if len(nw) != 2 {
		t.Fatalf("neighbors of a = %v", nw)
	}
}

func TestInferGroupsRespectsMaxSize(t *testing.T) {
	// A heavy 10-clique must be split into groups of at most 6.
	g := NewHandoverGraph()
	ids := make([]dataplane.DeviceID, 10)
	for i := range ids {
		ids[i] = dataplane.DeviceID(rune('a' + i))
	}
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			g.Add(ids[i], ids[j], 10+i+j)
		}
	}
	groups := InferGroups(g)
	seen := map[dataplane.DeviceID]bool{}
	total := 0
	for _, grp := range groups {
		if grp.Size() > dataplane.MaxGroupSize {
			t.Fatalf("group %s has %d members", grp.ID, grp.Size())
		}
		for _, m := range grp.Members() {
			if seen[m] {
				t.Fatalf("BS %s in two groups", m)
			}
			seen[m] = true
			total++
		}
	}
	if total != 10 {
		t.Fatalf("partition covers %d of 10", total)
	}
}

func TestInferGroupsKeepsHeavyEdgesTogether(t *testing.T) {
	// two triangles with heavy internal edges, one feather-weight bridge
	g := NewHandoverGraph()
	tri := func(a, b, c dataplane.DeviceID) {
		g.Add(a, b, 100)
		g.Add(b, c, 100)
		g.Add(a, c, 100)
	}
	tri("a", "b", "c")
	tri("x", "y", "z")
	g.Add("c", "x", 1)
	groups := InferGroups(g)
	if len(groups) != 1 && len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	// The 6-node whole graph fits one group; either way intra weight must
	// retain all heavy edges.
	if w := IntraGroupWeight(g, groups); w < 600 {
		t.Fatalf("intra-group weight = %d, heavy edges split", w)
	}
}

func TestInferGroupsSplitsAtLightEdge(t *testing.T) {
	// two 5-cliques joined by a light edge: 10 nodes cannot fit one group,
	// and the split should happen at the light bridge.
	g := NewHandoverGraph()
	mk := func(base rune) []dataplane.DeviceID {
		ids := make([]dataplane.DeviceID, 5)
		for i := range ids {
			ids[i] = dataplane.DeviceID(rune(int(base) + i))
		}
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				g.Add(ids[i], ids[j], 50)
			}
		}
		return ids
	}
	left := mk('a')
	right := mk('p')
	g.Add(left[4], right[0], 1)
	groups := InferGroups(g)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	groupOf := map[dataplane.DeviceID]dataplane.DeviceID{}
	for _, grp := range groups {
		for _, m := range grp.Members() {
			groupOf[m] = grp.ID
		}
	}
	if groupOf[left[0]] == groupOf[right[0]] {
		t.Fatal("cliques should separate at the light bridge")
	}
	if groupOf[left[0]] != groupOf[left[4]] {
		t.Fatal("left clique split")
	}
}

func TestInferGroupsIsolatedNodes(t *testing.T) {
	g := NewHandoverGraph()
	g.AddNode("lonely1")
	g.AddNode("lonely2")
	groups := InferGroups(g)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	for _, grp := range groups {
		if grp.Size() != 1 {
			t.Fatal("isolated nodes become singleton groups")
		}
	}
}

// Property: inference always partitions nodes into groups of ≤ 6.
func TestInferGroupsPartitionQuick(t *testing.T) {
	f := func(edges [][3]uint8) bool {
		g := NewHandoverGraph()
		for _, e := range edges {
			a := dataplane.DeviceID(rune('a' + e[0]%20))
			b := dataplane.DeviceID(rune('a' + e[1]%20))
			g.Add(a, b, int(e[2])+1)
		}
		nodes := g.Nodes()
		groups := InferGroups(g)
		seen := map[dataplane.DeviceID]bool{}
		for _, grp := range groups {
			if grp.Size() > dataplane.MaxGroupSize {
				return false
			}
			for _, m := range grp.Members() {
				if seen[m] {
					return false
				}
				seen[m] = true
			}
		}
		return len(seen) == len(nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnalShape(t *testing.T) {
	for minute := 0; minute < MinutesPerDay; minute++ {
		v := Diurnal(minute)
		if v <= 0 || v > 1 {
			t.Fatalf("diurnal(%d) = %v", minute, v)
		}
	}
	night := Diurnal(4 * 60)
	evening := Diurnal(20 * 60)
	midday := Diurnal(13 * 60)
	if evening <= night || midday <= night {
		t.Fatalf("peaks must exceed night: night=%v midday=%v evening=%v", night, midday, evening)
	}
	if evening <= midday {
		t.Fatalf("evening should be the higher peak: %v vs %v", evening, midday)
	}
	if Diurnal(10) != Diurnal(10+MinutesPerDay) {
		t.Fatal("diurnal must be periodic")
	}
	if Diurnal(-60) != Diurnal(MinutesPerDay-60) {
		t.Fatal("negative minutes must wrap")
	}
}

func TestModelDeterministic(t *testing.T) {
	a, b := smallModel(), smallModel()
	if len(a.Groups) != len(b.Groups) {
		t.Fatal("group counts differ")
	}
	for i, id := range a.BSIDs {
		if b.BSIDs[i] != id || a.Locs[id] != b.Locs[id] {
			t.Fatal("placement differs")
		}
		if a.BearerRate(i, 600) != b.BearerRate(i, 600) {
			t.Fatal("rates differ")
		}
	}
}

func TestModelGroupsCoverAllBSes(t *testing.T) {
	m := smallModel()
	covered := 0
	for _, g := range m.Groups {
		covered += g.Size()
		if g.Size() > dataplane.MaxGroupSize {
			t.Fatalf("group %s too big: %d", g.ID, g.Size())
		}
		if g.Topology != dataplane.TopoRing {
			t.Fatal("paper groups are rings")
		}
	}
	if covered != len(m.BSIDs) {
		t.Fatalf("groups cover %d of %d BSes", covered, len(m.BSIDs))
	}
	for _, id := range m.BSIDs {
		if _, ok := m.GroupOf[id]; !ok {
			t.Fatalf("BS %s ungrouped", id)
		}
	}
}

func TestRatesPositiveAndDiurnal(t *testing.T) {
	m := smallModel()
	var peakSum, nightSum float64
	for i := range m.BSIDs {
		peakSum += m.HandoverRate(i, 20*60)
		nightSum += m.HandoverRate(i, 4*60)
		if m.BearerRate(i, 100) < 0 || m.UEArrivalRate(i, 100) < 0 {
			t.Fatal("negative rate")
		}
	}
	if peakSum <= nightSum*1.5 {
		t.Fatalf("peak handover load should dominate night: %v vs %v", peakSum, nightSum)
	}
}

func TestHandoverGraphBSLocality(t *testing.T) {
	m := smallModel()
	g := m.HandoverGraphBS(12*60, 13*60)
	if g.TotalWeight() == 0 {
		t.Fatal("empty handover graph")
	}
	// handovers must connect geographically close BSes: check the mean
	// edge distance is far below the plane diagonal
	var sum float64
	var count int
	for _, e := range g.Edges() {
		sum += m.Locs[e.Key.A].Dist(m.Locs[e.Key.B])
		count++
	}
	mean := sum / float64(count)
	if mean > m.Params.PlaneSize/4 {
		t.Fatalf("handover edges not local: mean dist %v", mean)
	}
}

func TestHandoverGraphGroupsDropsInternal(t *testing.T) {
	m := smallModel()
	bs := m.HandoverGraphBS(12*60, 13*60)
	grp := m.HandoverGraphGroups(12*60, 13*60)
	if grp.TotalWeight() >= bs.TotalWeight() {
		t.Fatalf("group aggregation should drop intra-group handovers: %d vs %d",
			grp.TotalWeight(), bs.TotalWeight())
	}
	for _, e := range grp.Edges() {
		if e.Key.A == e.Key.B {
			t.Fatal("self edge after relabel")
		}
	}
}

func TestRegionLoads(t *testing.T) {
	m := smallModel()
	assign := make(map[dataplane.DeviceID]int)
	for i, id := range m.BSIDs {
		assign[id] = i % 4
	}
	bearer, ue, ho := m.RegionLoads(assign, 4, 13*60)
	for r := 0; r < 4; r++ {
		if bearer[r] <= 0 || ue[r] <= 0 || ho[r] <= 0 {
			t.Fatalf("region %d has zero load", r)
		}
	}
	var total float64
	for i := range m.BSIDs {
		total += m.BearerRate(i, 13*60)
	}
	var sum float64
	for _, v := range bearer {
		sum += v
	}
	if math.Abs(total-sum) > 1e-6 {
		t.Fatalf("region loads must sum to total: %v vs %v", sum, total)
	}
}

func TestSampleEvents(t *testing.T) {
	m := smallModel()
	events := m.SampleEvents(13*60, 13*60+2, 0.02)
	if len(events) == 0 {
		t.Fatal("no events sampled")
	}
	kinds := map[EventKind]int{}
	for i, e := range events {
		kinds[e.Kind]++
		if i > 0 && e.At < events[i-1].At {
			t.Fatal("events out of order")
		}
		if e.Kind == EvHandover {
			if e.Target == "" || e.Target == e.BS {
				t.Fatalf("bad handover target: %+v", e)
			}
		}
		if e.Kind == EvBearerCreate && (e.QoS < 1 || e.QoS > 4) {
			t.Fatalf("bad QoS: %+v", e)
		}
	}
	if kinds[EvBearerCreate] == 0 || kinds[EvHandover] == 0 || kinds[EvUEAttach] == 0 {
		t.Fatalf("kinds = %v", kinds)
	}
	// bearer events dominate (paper: 1e5 bearers vs 1e3 attaches per min)
	if kinds[EvBearerCreate] < kinds[EvUEAttach] {
		t.Fatalf("bearer events should dominate: %v", kinds)
	}
}

func TestSampleEventsEdgeCases(t *testing.T) {
	m := smallModel()
	if ev := m.SampleEvents(0, 1, 0); ev != nil {
		t.Fatal("zero scale should be nil")
	}
	a := m.SampleEvents(600, 601, 0.01)
	b := m.SampleEvents(600, 601, 0.01)
	if len(a) != len(b) {
		t.Fatal("sampling must be deterministic")
	}
}

func TestPoisson(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	if poisson(r, 0) != 0 {
		t.Fatal("zero lambda")
	}
	// mean of small-lambda draws
	var sum int
	const n = 3000
	for i := 0; i < n; i++ {
		sum += poisson(r, 3)
	}
	mean := float64(sum) / n
	if mean < 2.5 || mean > 3.5 {
		t.Fatalf("poisson(3) mean = %v", mean)
	}
	// large lambda path
	var sum2 int
	for i := 0; i < n; i++ {
		sum2 += poisson(r, 100)
	}
	mean2 := float64(sum2) / n
	if mean2 < 95 || mean2 > 105 {
		t.Fatalf("poisson(100) mean = %v", mean2)
	}
}

func TestEventKindStrings(t *testing.T) {
	ks := []EventKind{EvUEAttach, EvUEDetach, EvBearerCreate, EvBearerDelete, EvHandover}
	seen := map[string]bool{}
	for _, k := range ks {
		if seen[k.String()] {
			t.Fatal("duplicate kind string")
		}
		seen[k.String()] = true
	}
}
