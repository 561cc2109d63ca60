package discovery

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dataplane"
)

func TestFrameStack(t *testing.T) {
	f := &Frame{}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop on empty")
	}
	if _, ok := f.Top(); ok {
		t.Fatal("top on empty")
	}
	e1 := StackEntry{Controller: "C0", Device: "GS1", Port: 1}
	e2 := StackEntry{Controller: "C1", Device: "SW2", Port: 2}
	f.Push(e1)
	f.Push(e2)
	if f.Depth() != 2 {
		t.Fatalf("depth = %d", f.Depth())
	}
	if top, _ := f.Top(); top != e2 {
		t.Fatalf("top = %v", top)
	}
	got, ok := f.Pop()
	if !ok || got != e2 {
		t.Fatalf("pop = %v", got)
	}
	if top, _ := f.Top(); top != e1 {
		t.Fatalf("after pop top = %v", top)
	}
}

func TestFrameClone(t *testing.T) {
	f := &Frame{}
	f.Push(StackEntry{Controller: "C0"})
	c := f.Clone()
	c.Push(StackEntry{Controller: "C1"})
	if f.Depth() != 1 || c.Depth() != 2 {
		t.Fatal("clone aliases stack")
	}
}

func TestFrameString(t *testing.T) {
	f := &Frame{}
	f.Push(StackEntry{Controller: "C0", Device: "GS1", Port: 1})
	s := f.String()
	if !strings.Contains(s, "(C0,GS1,1)") {
		t.Fatalf("frame string = %q", s)
	}
}

// Property: a frame behaves as a stack (LIFO).
func TestFrameLIFOQuick(t *testing.T) {
	f := func(ports []uint8) bool {
		fr := &Frame{}
		var model []StackEntry
		for _, p := range ports {
			e := StackEntry{Controller: "C", Port: dataplane.PortID(p)}
			fr.Push(e)
			model = append(model, e)
		}
		for i := len(model) - 1; i >= 0; i-- {
			got, ok := fr.Pop()
			if !ok || got != model[i] {
				return false
			}
		}
		_, ok := fr.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConvergenceSingleServerSerializes(t *testing.T) {
	tp := TimingParams{Service: 10 * time.Millisecond, Propagation: 0}
	probes := FlatBaseline("flat", 5, 3)
	fin := Convergence(probes, tp, nil)
	// 5 emissions + 3 responses = 8 services = 80ms
	if fin["flat"] != 80*time.Millisecond {
		t.Fatalf("flat convergence = %v", fin["flat"])
	}
}

func TestConvergenceParallelLeaves(t *testing.T) {
	tp := TimingParams{Service: 10 * time.Millisecond, Propagation: 0}
	var probes []Probe
	for _, leaf := range []string{"A", "B"} {
		for i := 0; i < 4; i++ {
			probes = append(probes, Probe{Owner: leaf, HasLink: true})
		}
	}
	fin := Convergence(probes, tp, nil)
	// each leaf: 4 emissions + 4 responses = 80ms, in parallel
	if fin["A"] != 80*time.Millisecond || fin["B"] != 80*time.Millisecond {
		t.Fatalf("leaf convergence = %v", fin)
	}
}

func TestHierarchyBeatsFlat(t *testing.T) {
	// Paper claim: per-controller convergence is 44–58% faster than flat
	// because most ports/links are masked from each controller.
	tp := DefaultTiming()

	// Flat: one controller sees 100 ports, 80 of which return links.
	flat := Convergence(FlatBaseline("flat", 100, 80), tp, nil)

	// SoftMoW: 4 leaves × 25 ports/20 links each (parallel), then a root
	// with 8 border ports / 6 cross links relayed through leaves.
	var probes []Probe
	for _, leaf := range []string{"A", "B", "C", "D"} {
		for i := 0; i < 25; i++ {
			probes = append(probes, Probe{Owner: leaf, HasLink: i < 20})
		}
	}
	leafFin := Convergence(probes, tp, nil)
	maxLeaf := time.Duration(0)
	for _, v := range leafFin {
		if v > maxLeaf {
			maxLeaf = v
		}
	}
	rootProbes := make([]Probe, 0, 8)
	leaves := []string{"A", "B", "C", "D"}
	for i := 0; i < 8; i++ {
		rootProbes = append(rootProbes, Probe{
			Owner:   "root",
			Relays:  []string{leaves[i%4]},
			HasLink: i < 6,
		})
	}
	start := map[string]time.Duration{"root": maxLeaf}
	rootFin := Convergence(rootProbes, tp, start)

	for name, v := range leafFin {
		if v >= flat["flat"] {
			t.Fatalf("leaf %s (%v) should beat flat (%v)", name, v, flat["flat"])
		}
	}
	if rootFin["root"] >= flat["flat"] {
		t.Fatalf("root (%v) should beat flat (%v)", rootFin["root"], flat["flat"])
	}
}

func TestRelaysAddLoad(t *testing.T) {
	tp := TimingParams{Service: 10 * time.Millisecond, Propagation: time.Millisecond}
	withRelay := Convergence([]Probe{{Owner: "root", Relays: []string{"leaf"}, HasLink: true}}, tp, nil)
	withoutRelay := Convergence([]Probe{{Owner: "root", HasLink: true}}, tp, nil)
	if withRelay["root"] <= withoutRelay["root"] {
		t.Fatalf("relay should add latency: %v vs %v", withRelay["root"], withoutRelay["root"])
	}
	if _, ok := withRelay["leaf"]; !ok {
		t.Fatal("relay controller should appear in result")
	}
}

func TestNoLinkProbeStillConverges(t *testing.T) {
	tp := TimingParams{Service: 5 * time.Millisecond, Propagation: 0}
	fin := Convergence([]Probe{{Owner: "c", HasLink: false}}, tp, nil)
	if fin["c"] != 5*time.Millisecond {
		t.Fatalf("no-link probe convergence = %v", fin["c"])
	}
}

func TestStartAtDelays(t *testing.T) {
	tp := TimingParams{Service: 10 * time.Millisecond, Propagation: 0}
	fin := Convergence(
		[]Probe{{Owner: "root", HasLink: true}},
		tp,
		map[string]time.Duration{"root": time.Second},
	)
	if fin["root"] != time.Second+20*time.Millisecond {
		t.Fatalf("delayed start convergence = %v", fin["root"])
	}
}

func TestSortedControllers(t *testing.T) {
	m := map[string]time.Duration{"b": 1, "a": 2, "c": 3}
	got := SortedControllers(m)
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("sorted = %v", got)
	}
}

func TestDefaultTimingSane(t *testing.T) {
	tp := DefaultTiming()
	if tp.Service <= tp.Propagation {
		t.Fatal("service must dominate propagation (paper's observation)")
	}
}

// Top returns the top entry without removing it.
func (f *Frame) Top() (StackEntry, bool) {
	if len(f.Stack) == 0 {
		return StackEntry{}, false
	}
	return f.Stack[len(f.Stack)-1], true
}

// Clone deep-copies the frame.
func (f *Frame) Clone() *Frame {
	c := *f
	c.Stack = append([]StackEntry(nil), f.Stack...)
	return &c
}

// SortedControllers returns the map keys sorted, for stable reporting.
func SortedControllers(m map[string]time.Duration) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
