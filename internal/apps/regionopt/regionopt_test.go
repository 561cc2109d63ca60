package regionopt

import (
	"testing"
	"testing/quick"

	"repro/internal/dataplane"
	"repro/internal/ltetrace"
)

// paperExample reproduces Fig. 7b: border G-BSes 2, 3, 4, internal I_A and
// I_B. Edges (weights from the figure): 3–IB 200, 3–2 100(within B),
// 3–IA 500 wait — encoded below to make "gain 200 (=500-200-100)" hold for
// moving G-BS 3 from B to A.
func paperExample() (*ltetrace.HandoverGraph, Assignment, map[dataplane.DeviceID]bool) {
	g := ltetrace.NewHandoverGraph()
	// G-BS 3 (region B): 500 toward region A nodes, 200+100 toward B nodes.
	g.Add("gbs3", "IA", 400)
	g.Add("gbs3", "gbs4", 100) // gbs4 in A
	g.Add("gbs3", "IB", 200)
	g.Add("gbs3", "gbs2", 100) // gbs2 in B
	// Other cross traffic not involving gbs3; gbs4 is firmly tied to its
	// own region A so moving it has negative gain.
	g.Add("gbs2", "gbs4", 100)
	g.Add("gbs2", "IA", 100)
	g.Add("gbs4", "IB", 100)
	g.Add("gbs4", "IA", 400)
	assign := Assignment{
		"gbs2": "B", "gbs3": "B", "IB": "B",
		"gbs4": "A", "IA": "A",
	}
	movable := map[dataplane.DeviceID]bool{"gbs2": true, "gbs3": true, "gbs4": true}
	return g, assign, movable
}

func TestCrossWeight(t *testing.T) {
	g, assign, _ := paperExample()
	// cross edges: 3-IA 400, 3-gbs4 100, 2-gbs4 100, 2-IA 100, 4-IB 100 = 800
	if got := CrossWeight(g, assign); got != 800 {
		t.Fatalf("cross = %d", got)
	}
}

func TestGreedyPicksMaxGain(t *testing.T) {
	g, assign, movable := paperExample()
	res := Optimize(Problem{Graph: g, Assign: assign, Movable: movable})
	if len(res.Moves) == 0 {
		t.Fatal("no moves")
	}
	m := res.Moves[0]
	// moving gbs3 B→A first: gain = (400+100) - (200+100) = 200, the maximum
	if m.GBS != "gbs3" || m.From != "B" || m.To != "A" || m.Gain != 200 {
		t.Fatalf("first move = %+v", m)
	}
	gain := 0
	for _, mv := range res.Moves {
		gain += mv.Gain
	}
	if res.After != res.Before-gain {
		t.Fatalf("after = %d, before = %d, total gain = %d", res.After, res.Before, gain)
	}
}

func TestOptimizeNeverIncreasesCross(t *testing.T) {
	g, assign, movable := paperExample()
	res := Optimize(Problem{Graph: g, Assign: assign, Movable: movable})
	if res.After > res.Before {
		t.Fatalf("optimization increased handovers: %d -> %d", res.Before, res.After)
	}
	for _, m := range res.Moves {
		if m.Gain <= 0 {
			t.Fatalf("non-positive gain move: %+v", m)
		}
	}
	// the result assignment must reflect the moves
	if res.Assign["gbs3"] == "B" && len(res.Moves) > 0 && res.Moves[0].GBS == "gbs3" {
		t.Fatal("assignment not updated")
	}
	if got := CrossWeight(g, res.Assign); got != res.After {
		t.Fatalf("After (%d) must equal recomputed cross weight (%d)", res.After, got)
	}
}

func TestInternalGBSNeverMoves(t *testing.T) {
	g, assign, movable := paperExample()
	res := Optimize(Problem{Graph: g, Assign: assign, Movable: movable})
	if res.Assign["IA"] != "A" || res.Assign["IB"] != "B" {
		t.Fatal("internal G-BS moved")
	}
}

func TestLoadBoundsBlockMoves(t *testing.T) {
	g, assign, movable := paperExample()
	load := map[dataplane.DeviceID]float64{
		"gbs2": 100, "gbs3": 100, "gbs4": 100, "IA": 500, "IB": 500,
	}
	// Region A is at its upper bound: no move into A allowed.
	bounds := map[string]Bounds{
		"A": {Lower: 0, Upper: 600},
		"B": {Lower: 0, Upper: 10000},
	}
	res := Optimize(Problem{Graph: g, Assign: assign, Movable: movable, Load: load, Bounds: bounds})
	for _, m := range res.Moves {
		if m.To == "A" {
			t.Fatalf("move into saturated region: %+v", m)
		}
	}
	// lower bound: region B cannot drop below 600
	bounds = map[string]Bounds{
		"B": {Lower: 650, Upper: 10000},
	}
	res = Optimize(Problem{Graph: g, Assign: assign, Movable: movable, Load: load, Bounds: bounds})
	for _, m := range res.Moves {
		if m.From == "B" {
			t.Fatalf("move drained region below lower bound: %+v", m)
		}
	}
}

func TestAdjacencyConstraint(t *testing.T) {
	g, assign, movable := paperExample()
	noAdj := func(from, to string) bool { return false }
	res := Optimize(Problem{Graph: g, Assign: assign, Movable: movable, Adjacent: noAdj})
	if len(res.Moves) != 0 {
		t.Fatalf("moves despite no adjacency: %+v", res.Moves)
	}
}

func TestBoundsFromInitial(t *testing.T) {
	b := BoundsFromInitial(map[string]float64{"A": 1000}, 0.3)
	if b["A"].Lower != 700 || b["A"].Upper != 1300 {
		t.Fatalf("bounds = %+v", b["A"])
	}
}

func TestTermination(t *testing.T) {
	// A symmetric graph where a naive algorithm might oscillate: greedy
	// with strictly positive gains must terminate.
	g := ltetrace.NewHandoverGraph()
	g.Add("x", "y", 10)
	assign := Assignment{"x": "A", "y": "B"}
	movable := map[dataplane.DeviceID]bool{"x": true, "y": true}
	res := Optimize(Problem{Graph: g, Assign: assign, Movable: movable})
	// first move collapses x,y into one region; after that no cross edges
	if res.After != 0 {
		t.Fatalf("after = %d", res.After)
	}
	if len(res.Moves) != 1 {
		t.Fatalf("moves = %+v", res.Moves)
	}
}

// Property: for random graphs and assignments, Optimize terminates, never
// increases cross weight, respects movable flags, and After equals the
// recomputed cross weight.
func TestOptimizePropertyQuick(t *testing.T) {
	f := func(edges [][3]uint8, regionOf []uint8) bool {
		g := ltetrace.NewHandoverGraph()
		nodes := map[dataplane.DeviceID]bool{}
		for _, e := range edges {
			a := dataplane.DeviceID(rune('a' + e[0]%12))
			b := dataplane.DeviceID(rune('a' + e[1]%12))
			g.Add(a, b, int(e[2]%50)+1)
			nodes[a] = true
			nodes[b] = true
		}
		assign := Assignment{}
		movable := map[dataplane.DeviceID]bool{}
		i := 0
		for _, n := range g.Nodes() {
			r := "R0"
			if len(regionOf) > 0 && regionOf[i%len(regionOf)]%2 == 1 {
				r = "R1"
			}
			assign[n] = r
			movable[n] = i%3 != 0 // some nodes fixed
			i++
		}
		res := Optimize(Problem{Graph: g, Assign: assign, Movable: movable})
		if res.After > res.Before {
			return false
		}
		if CrossWeight(g, res.Assign) != res.After {
			return false
		}
		for n, ok := range movable {
			if !ok && res.Assign[n] != assign[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentClone(t *testing.T) {
	a := Assignment{"x": "A"}
	c := a.Clone()
	c["x"] = "B"
	if a["x"] != "A" {
		t.Fatal("clone aliases")
	}
}
