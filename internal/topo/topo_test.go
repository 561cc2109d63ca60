package topo

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/dataplane"
)

func defaultTopo(t *testing.T) *Topology {
	t.Helper()
	return Generate(Params{Seed: 1})
}

func TestGenerateDefaults(t *testing.T) {
	tp := defaultTopo(t)
	if got := len(tp.Net.Switches()); got != 321 {
		t.Fatalf("switches = %d, want 321 (paper default)", got)
	}
	if len(tp.PoPs) == 0 {
		t.Fatal("no PoPs")
	}
	if len(tp.Locations) != 321 {
		t.Fatalf("locations = %d", len(tp.Locations))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Params{Seed: 7, NumSwitches: 64})
	b := Generate(Params{Seed: 7, NumSwitches: 64})
	if len(a.Net.Links()) != len(b.Net.Links()) {
		t.Fatalf("link counts differ: %d vs %d", len(a.Net.Links()), len(b.Net.Links()))
	}
	la, lb := a.Net.Links(), b.Net.Links()
	for i := range la {
		if la[i].A != lb[i].A || la[i].B != lb[i].B {
			t.Fatalf("link %d differs: %v vs %v", i, la[i], lb[i])
		}
	}
	for id, loc := range a.Locations {
		if b.Locations[id] != loc {
			t.Fatalf("location of %s differs", id)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(Params{Seed: 1, NumSwitches: 64})
	b := Generate(Params{Seed: 2, NumSwitches: 64})
	same := true
	for id, loc := range a.Locations {
		if b.Locations[id] != loc {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different placements")
	}
}

func TestGenerateConnected(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42} {
		tp := Generate(Params{Seed: seed, NumSwitches: 100})
		comps := tp.components()
		if len(comps) != 1 {
			t.Fatalf("seed %d: %d components", seed, len(comps))
		}
	}
}

func TestGenerateFixedLatency(t *testing.T) {
	tp := Generate(Params{Seed: 1, NumSwitches: 50})
	for _, l := range tp.Net.Links() {
		if l.Latency != 5*time.Millisecond {
			t.Fatalf("paper default latency is 5ms, got %v", l.Latency)
		}
		if l.Bandwidth != 1000 {
			t.Fatalf("paper default bandwidth is 1Gbps, got %v", l.Bandwidth)
		}
	}
}

func TestGenerateDistanceLatency(t *testing.T) {
	tp := Generate(Params{Seed: 1, NumSwitches: 50, FixedLatency: -1})
	sawDifferent := false
	var first time.Duration
	for i, l := range tp.Net.Links() {
		if l.Latency < time.Millisecond {
			t.Fatalf("latency floor violated: %v", l.Latency)
		}
		if i == 0 {
			first = l.Latency
		} else if l.Latency != first {
			sawDifferent = true
		}
	}
	if !sawDifferent {
		t.Fatal("distance-based latencies should vary")
	}
}

func TestSmallTopology(t *testing.T) {
	tp := Generate(Params{Seed: 1, NumSwitches: 8, NumPoPs: 2})
	if len(tp.Net.Switches()) != 8 {
		t.Fatalf("switches = %d", len(tp.Net.Switches()))
	}
	if len(tp.components()) != 1 {
		t.Fatal("small topology must be connected")
	}
}

func TestNearestSwitch(t *testing.T) {
	tp := Generate(Params{Seed: 1, NumSwitches: 30})
	for _, sw := range tp.Net.Switches()[:5] {
		if got := tp.NearestSwitch(tp.Locations[sw.ID]); got != sw.ID {
			t.Fatalf("nearest to %s's own location = %s", sw.ID, got)
		}
	}
}

func TestPlaceEgressPoints(t *testing.T) {
	tp := Generate(Params{Seed: 1, NumSwitches: 100})
	eps := tp.PlaceEgressPoints(8)
	if len(eps) != 8 {
		t.Fatalf("egress = %d", len(eps))
	}
	seen := map[dataplane.DeviceID]bool{}
	for _, ep := range eps {
		if seen[ep.Switch] {
			t.Fatalf("duplicate egress switch %s", ep.Switch)
		}
		seen[ep.Switch] = true
		if !tp.Net.Switch(ep.Switch).IsEgress {
			t.Fatal("egress switch not marked")
		}
	}
	if len(tp.Net.EgressPoints()) != 8 {
		t.Fatal("network egress registry")
	}
}

func TestSpreadPoPsCoverage(t *testing.T) {
	tp := Generate(Params{Seed: 3, NumSwitches: 160})
	idx := tp.SpreadPoPs(4)
	if len(idx) != 4 {
		t.Fatalf("spread = %v", idx)
	}
	// pairwise distances should all be substantial relative to plane size
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			d := tp.PoPs[idx[i]].Center.Dist(tp.PoPs[idx[j]].Center)
			if d < tp.Params.PlaneSize/10 {
				t.Fatalf("spread PoPs too close: %v", d)
			}
		}
	}
	if got := tp.SpreadPoPs(10000); len(got) != len(tp.PoPs) {
		t.Fatal("k larger than PoPs should clamp")
	}
	if tp.SpreadPoPs(0) != nil {
		t.Fatal("k=0 should be nil")
	}
}

func TestPartitionBalancedConnected(t *testing.T) {
	tp := Generate(Params{Seed: 1})
	for _, k := range []int{4, 8} {
		regions := Partition(tp, k)
		if len(regions) != k {
			t.Fatalf("regions = %d", len(regions))
		}
		total := 0
		for _, r := range regions {
			total += len(r.Switches)
			if !IsConnected(tp, r) {
				t.Fatalf("region %s disconnected (size %d)", r.ID, len(r.Switches))
			}
		}
		if total != 321 {
			t.Fatalf("partition loses switches: %d", total)
		}
		if spread := SizeSpread(regions); spread > 321/k {
			t.Fatalf("k=%d imbalanced: spread %d", k, spread)
		}
	}
}

func TestPartitionNamesAndIndex(t *testing.T) {
	tp := Generate(Params{Seed: 1, NumSwitches: 64})
	regions := Partition(tp, 4)
	if regions[0].ID != "A" || regions[3].ID != "D" {
		t.Fatalf("region names: %s..%s", regions[0].ID, regions[3].ID)
	}
	idx := RegionOf(regions)
	if len(idx) != 64 {
		t.Fatalf("index size = %d", len(idx))
	}
	for i, r := range regions {
		for _, s := range r.Switches {
			if idx[s] != i {
				t.Fatal("index inconsistent")
			}
		}
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	tp := Generate(Params{Seed: 1, NumSwitches: 10, NumPoPs: 2})
	if Partition(tp, 0) != nil {
		t.Fatal("k=0 should be nil")
	}
	regions := Partition(tp, 100)
	total := 0
	for _, r := range regions {
		total += len(r.Switches)
	}
	if total != 10 {
		t.Fatalf("k>n partition total = %d", total)
	}
}

func TestCrossRegionLinks(t *testing.T) {
	tp := Generate(Params{Seed: 1})
	regions := Partition(tp, 4)
	cross := CrossRegionLinks(tp, regions)
	if len(cross) == 0 {
		t.Fatal("4-way partition of a connected graph must cut some links")
	}
	if len(cross) >= len(tp.Net.Links()) {
		t.Fatal("not all links can be cross-region")
	}
	idx := RegionOf(regions)
	for _, l := range cross {
		if idx[l.A.Dev] == idx[l.B.Dev] {
			t.Fatal("intra-region link reported as cross-region")
		}
	}
}

func TestRegionNameOverflow(t *testing.T) {
	if regionName(0) != "A" || regionName(25) != "Z" || regionName(26) != "R26" {
		t.Fatalf("names: %s %s %s", regionName(0), regionName(25), regionName(26))
	}
}

// CrossRegionLinks returns the physical links whose endpoints lie in
// different regions — the links only an ancestor controller may discover
// (§4.1).
func CrossRegionLinks(t *Topology, regions []Region) []*dataplane.Link {
	idx := RegionOf(regions)
	var out []*dataplane.Link
	for _, l := range t.Net.Links() {
		ra, oka := idx[l.A.Dev]
		rb, okb := idx[l.B.Dev]
		if oka && okb && ra != rb {
			out = append(out, l)
		}
	}
	return out
}

// IsConnected reports whether the switches of region r form one connected
// component in the topology's switch graph restricted to r.
func IsConnected(t *Topology, r Region) bool {
	if len(r.Switches) == 0 {
		return true
	}
	in := make(map[dataplane.DeviceID]bool, len(r.Switches))
	for _, s := range r.Switches {
		in[s] = true
	}
	visited := map[dataplane.DeviceID]bool{r.Switches[0]: true}
	queue := []dataplane.DeviceID{r.Switches[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, adj := range t.Net.Neighbors(cur) {
			nb := adj.Remote.Dev
			if in[nb] && !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(visited) == len(r.Switches)
}

// SizeSpread returns the difference between the largest and smallest
// region sizes.
func SizeSpread(regions []Region) int {
	if len(regions) == 0 {
		return 0
	}
	sizes := make([]int, len(regions))
	for i, r := range regions {
		sizes[i] = len(r.Switches)
	}
	sort.Ints(sizes)
	return sizes[len(sizes)-1] - sizes[0]
}

// NearestSwitch returns the switch closest to loc.
func (t *Topology) NearestSwitch(loc dataplane.GeoPoint) dataplane.DeviceID {
	best := dataplane.DeviceID("")
	bestD := math.Inf(1)
	for _, sw := range t.Net.Switches() {
		if d := t.Locations[sw.ID].Dist(loc); d < bestD {
			bestD = d
			best = sw.ID
		}
	}
	return best
}
