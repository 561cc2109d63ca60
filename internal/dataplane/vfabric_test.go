package dataplane

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// Better reports whether m is a strictly better path than o under the
// lexicographic (hops, latency) order used by the routing service.
func (m PathMetrics) Better(o PathMetrics) bool {
	if !m.Reachable {
		return false
	}
	if !o.Reachable {
		return true
	}
	if m.Hops != o.Hops {
		return m.Hops < o.Hops
	}
	return m.Latency < o.Latency
}

func TestPortPairNormalization(t *testing.T) {
	if NewPortPair(5, 2) != NewPortPair(2, 5) {
		t.Fatal("port pairs must be orientation-independent")
	}
	v := NewVFabric()
	v.Set(5, 2, PathMetrics{Hops: 3, Reachable: true})
	if m, ok := v.Get(2, 5); !ok || m.Hops != 3 {
		t.Fatalf("reversed lookup failed: %v %v", m, ok)
	}
}

func TestPathMetricsBetter(t *testing.T) {
	a := PathMetrics{Hops: 2, Latency: 10 * time.Millisecond, Reachable: true}
	b := PathMetrics{Hops: 3, Latency: time.Millisecond, Reachable: true}
	if !a.Better(b) {
		t.Fatal("fewer hops should win")
	}
	c := PathMetrics{Hops: 2, Latency: 5 * time.Millisecond, Reachable: true}
	if !c.Better(a) {
		t.Fatal("equal hops, lower latency should win")
	}
	unreach := PathMetrics{}
	if unreach.Better(a) {
		t.Fatal("unreachable can never be better")
	}
	if !a.Better(unreach) {
		t.Fatal("reachable beats unreachable")
	}
}

func TestVFabricPairsDeterministic(t *testing.T) {
	v := NewVFabric()
	v.Set(3, 1, PathMetrics{Reachable: true})
	v.Set(1, 2, PathMetrics{Reachable: true})
	v.Set(2, 3, PathMetrics{Reachable: true})
	p1 := v.Pairs()
	p2 := v.Pairs()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("Pairs() must be deterministic")
		}
	}
	if p1[0] != NewPortPair(1, 2) {
		t.Fatalf("expected sorted order, got %v", p1)
	}
}

func TestVFabricClone(t *testing.T) {
	v := NewVFabric()
	v.Set(1, 2, PathMetrics{Bandwidth: 100, Reachable: true})
	c := v.Clone()
	c.Set(1, 2, PathMetrics{Bandwidth: 50, Reachable: true})
	if m, _ := v.Get(1, 2); m.Bandwidth != 100 {
		t.Fatal("clone must not alias")
	}
}

func TestVFabricDiffExceeds(t *testing.T) {
	old := NewVFabric()
	old.Set(1, 2, PathMetrics{Bandwidth: 100, Reachable: true})
	cur := old.Clone()
	if cur.DiffExceeds(old, 10) {
		t.Fatal("identical fabrics should not exceed threshold")
	}
	cur.Set(1, 2, PathMetrics{Bandwidth: 95, Reachable: true})
	if cur.DiffExceeds(old, 10) {
		t.Fatal("5 Mbps change below threshold 10")
	}
	cur.Set(1, 2, PathMetrics{Bandwidth: 50, Reachable: true})
	if !cur.DiffExceeds(old, 10) {
		t.Fatal("50 Mbps change must exceed threshold")
	}
	cur = old.Clone()
	cur.Set(1, 2, PathMetrics{Bandwidth: 100, Reachable: false})
	if !cur.DiffExceeds(old, 10) {
		t.Fatal("reachability change must trigger update")
	}
	cur = old.Clone()
	cur.Set(3, 4, PathMetrics{Reachable: true})
	if !cur.DiffExceeds(old, 10) {
		t.Fatal("new pair must trigger update")
	}
	if !cur.DiffExceeds(nil, 10) {
		t.Fatal("nonempty vs nil must trigger")
	}
	if NewVFabric().DiffExceeds(nil, 10) {
		t.Fatal("empty vs nil must not trigger")
	}
}

// Property: DiffExceeds is symmetric-ish for same-keyed fabrics — if |Δbw|
// per pair never exceeds the threshold, no trigger either direction.
func TestVFabricDiffQuick(t *testing.T) {
	f := func(bws []uint16, delta uint8, threshold uint8) bool {
		if len(bws) == 0 {
			return true
		}
		old := NewVFabric()
		cur := NewVFabric()
		for i, bw := range bws {
			a, b := PortID(i), PortID(i+1)
			old.Set(a, b, PathMetrics{Bandwidth: float64(bw), Reachable: true})
			cur.Set(a, b, PathMetrics{Bandwidth: float64(bw) + float64(uint16(delta)%threshold1(threshold)), Reachable: true})
		}
		th := float64(threshold1(threshold))
		exceeds := cur.DiffExceeds(old, th)
		// delta mod threshold is < threshold, so never exceeds
		return !exceeds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func threshold1(t uint8) uint16 {
	if t == 0 {
		return 1
	}
	return uint16(t)
}

func TestVFabricString(t *testing.T) {
	v := NewVFabric()
	v.Set(1, 2, PathMetrics{Hops: 2, Latency: 10 * time.Millisecond, Bandwidth: 500, Reachable: true})
	s := v.String()
	if !strings.Contains(s, "1-2") || !strings.Contains(s, "2h") {
		t.Fatalf("vfabric string = %q", s)
	}
}

func TestGSwitchInfoPortByID(t *testing.T) {
	g := &GSwitchInfo{ID: "GS1", Ports: []GPort{{ID: 1}, {ID: 7, External: true}}}
	if p := g.PortByID(7); p == nil || !p.External {
		t.Fatalf("PortByID(7) = %+v", p)
	}
	if g.PortByID(99) != nil {
		t.Fatal("missing port should be nil")
	}
}
