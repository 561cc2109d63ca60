package routing

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataplane"
)

// filled counts the memo's occupied slots.
func (m pathMemo) filled() int {
	n := 0
	for i := range m {
		if m[i].Load() != nil {
			n++
		}
	}
	return n
}

// legacyDevices and legacySegments are Path.Devices and Path.Segments as
// they were derived per call before paths carried them.
func legacyDevices(p *Path) []dataplane.DeviceID {
	var out []dataplane.DeviceID
	for _, pt := range p.Points {
		if len(out) == 0 || out[len(out)-1] != pt.Dev {
			out = append(out, pt.Dev)
		}
	}
	return out
}

func legacySegments(p *Path) []Segment {
	var segs []Segment
	i := 0
	for i < len(p.Points) {
		j := i
		for j+1 < len(p.Points) && p.Points[j+1].Dev == p.Points[i].Dev {
			j++
		}
		segs = append(segs, Segment{Dev: p.Points[i].Dev, InPort: p.Points[i].Port, OutPort: p.Points[j].Port})
		i = j + 1
	}
	return segs
}

// TestMemoRepeatedKey: the second ask of a key is answered from the memo
// — the same *Path, or ErrNoPath without a second Dijkstra run — and a
// different key is not.
func TestMemoRepeatedKey(t *testing.T) {
	g := BuildGraph(lineNIB())
	src := dataplane.PortRef{Dev: "SW1", Port: 1}
	dst := dataplane.PortRef{Dev: "SW3", Port: 2}

	hits, misses := pathMemoHits.Value(), pathMemoMisses.Value()
	p1, err := g.ShortestPath(src, dst, MinHops, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g.ShortestPath(src, dst, MinHops, Constraints{})
	if err != nil || p2 != p1 {
		t.Fatalf("repeated key: got %p (%v), want the first answer %p", p2, err, p1)
	}
	if p3, err := g.ShortestPath(src, dst, MinLatency, Constraints{}); err != nil || p3 == p1 {
		t.Fatalf("another objective shared the MinHops entry: %p %v", p3, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := g.ShortestPath(src, dst, MinHops, Constraints{MaxHops: 1}); !errors.Is(err, ErrNoPath) {
			t.Fatalf("ask %d of an inadmissible key: %v", i, err)
		}
	}
	if h, m := pathMemoHits.Value()-hits, pathMemoMisses.Value()-misses; h != 2 || m != 3 {
		t.Fatalf("hits/misses = %d/%d, want 2/3 (path and ErrNoPath each computed once)", h, m)
	}
	if n := g.memo.filled(); n != 3 {
		t.Fatalf("memo holds %d entries, want 3", n)
	}
	// An endpoint outside the graph is refused before the memo is asked.
	if _, err := g.ShortestPath(src, dataplane.PortRef{Dev: "nope", Port: 1}, MinHops, Constraints{}); !errors.Is(err, ErrNoPath) {
		t.Fatal(err)
	}
	if n := g.memo.filled(); n != 3 {
		t.Fatalf("unknown endpoint stored an entry: %d", n)
	}
}

// TestMemoConcurrentFirstFill races 8 goroutines over the same mixed keys
// on an empty memo: every goroutine must see equal answers per key, and
// the memo must end with exactly one entry per key.
func TestMemoConcurrentFirstFill(t *testing.T) {
	g := BuildGraph(gridNIB(6))
	type ask struct {
		src, dst dataplane.PortRef
		obj      Objective
		ct       Constraints
	}
	var asks []ask
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			a := ask{
				src: dataplane.PortRef{Dev: "SW0000", Port: 2},
				dst: dataplane.PortRef{Dev: dataplane.DeviceID(fmt.Sprintf("SW%02d%02d", r, c)), Port: 1},
				obj: Objective((r + c) % 2),
			}
			if c == 5 {
				a.ct.MaxHops = 2 // inadmissible for far rows: ErrNoPath entries race too
			}
			asks = append(asks, a)
		}
	}
	const workers = 8
	got := make([][]*Path, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*Path, len(asks))
			<-start
			for i := range asks {
				a := asks[(i+w*5)%len(asks)]
				p, err := g.ShortestPath(a.src, a.dst, a.obj, a.ct)
				if err != nil && !errors.Is(err, ErrNoPath) {
					t.Errorf("worker %d: %v", w, err)
				}
				got[w][(i+w*5)%len(asks)] = p
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for i := range asks {
		for w := 1; w < workers; w++ {
			if !reflect.DeepEqual(got[w][i], got[0][i]) {
				t.Fatalf("ask %d: worker %d got %+v, worker 0 got %+v", i, w, got[w][i], got[0][i])
			}
		}
		// After the race every ask is a hit on the one stored entry.
		a := asks[i]
		p, _ := g.ShortestPath(a.src, a.dst, a.obj, a.ct)
		if q, _ := g.ShortestPath(a.src, a.dst, a.obj, a.ct); q != p {
			t.Fatalf("ask %d: two entries answer one key", i)
		}
	}
	if n := g.memo.filled(); n != len(asks) {
		t.Fatalf("memo holds %d entries for %d keys", n, len(asks))
	}
}

// TestPathTraversalsMatchLegacy: on the evaluation-scale grid, for every
// objective, the Segments and Devices a path carries equal the per-call
// derivation they replace, are full (so an append copies), and a Path
// assembled by hand derives the same.
func TestPathTraversalsMatchLegacy(t *testing.T) {
	g := BuildGraph(gridNIB(18))
	src := dataplane.PortRef{Dev: "SW0000", Port: 2}
	for _, obj := range []Objective{MinHops, MinLatency} {
		for _, dst := range []dataplane.PortRef{
			{Dev: "SW1717", Port: 1}, {Dev: "SW0017", Port: 3}, {Dev: "SW0903", Port: 2}, {Dev: "SW0000", Port: 1}, src,
		} {
			p, err := g.ShortestPath(src, dst, obj, Constraints{})
			if err != nil {
				t.Fatalf("%v -> %v: %v", src, dst, err)
			}
			segs, devs := p.Segments(), p.Devices()
			if !reflect.DeepEqual(segs, legacySegments(p)) {
				t.Fatalf("%v obj %d: segments %v, legacy %v", dst, obj, segs, legacySegments(p))
			}
			if !reflect.DeepEqual(devs, legacyDevices(p)) {
				t.Fatalf("%v obj %d: devices %v, legacy %v", dst, obj, devs, legacyDevices(p))
			}
			if len(segs) != cap(segs) || len(devs) != cap(devs) {
				t.Fatalf("%v: len/cap segments %d/%d devices %d/%d: an append would write into the shared path",
					dst, len(segs), cap(segs), len(devs), cap(devs))
			}
			if &p.Segments()[0] != &segs[0] || &p.Devices()[0] != &devs[0] {
				t.Fatalf("%v: accessors derive per call instead of returning the carried slices", dst)
			}
			byHand := &Path{Points: p.Points, Cost: p.Cost, LinkCrossings: p.LinkCrossings}
			if !reflect.DeepEqual(byHand.Segments(), segs) || !reflect.DeepEqual(byHand.Devices(), devs) {
				t.Fatalf("%v: hand-assembled path derives %v / %v", dst, byHand.Segments(), byHand.Devices())
			}
		}
	}
}

// TestMemoBounded asks for more distinct keys than the memo has slots:
// every one is answered correctly, asked twice, and the memo never holds
// more than the constant its graph's size gave it.
func TestMemoBounded(t *testing.T) {
	if n := len(BuildGraph(gridNIB(18)).memo); n != memoMaxSlots {
		t.Fatalf("evaluation-scale graph got %d memo slots, want the cap %d", n, memoMaxSlots)
	}
	g := BuildGraph(gridNIB(6)) // 144 nodes
	memoSlots := len(g.memo)
	if memoSlots != 2048 {
		t.Fatalf("144-node graph got %d memo slots, want 2048", memoSlots)
	}
	src := dataplane.PortRef{Dev: "SW0000", Port: 2}
	dst := dataplane.PortRef{Dev: "SW0002", Port: 1}
	for round := 0; round < 2; round++ {
		for i := 0; i <= 2*memoSlots; i++ {
			// Distinct keys, same answer: every link offers 1000 Mbps.
			p, err := g.ShortestPath(src, dst, MinHops, Constraints{MinBandwidth: 1 + float64(i)/16})
			if err != nil || p.Cost.Hops != 2 || len(p.Points) != 6 {
				t.Fatalf("round %d key %d: %+v %v", round, i, p, err)
			}
		}
		if _, err := g.ShortestPath(src, dst, MinHops, Constraints{MinBandwidth: 1001}); !errors.Is(err, ErrNoPath) {
			t.Fatalf("round %d: over-demand key: %v", round, err)
		}
	}
	n := g.memo.filled()
	if n > memoSlots {
		t.Fatalf("memo holds %d entries, bound is %d", n, memoSlots)
	}
	if n < memoSlots*3/4 {
		t.Fatalf("memo holds only %d of %d slots after %d keys: the hash clusters", n, memoSlots, 2*memoSlots+2)
	}
}
