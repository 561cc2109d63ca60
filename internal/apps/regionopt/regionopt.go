// Package regionopt implements SoftMoW's region optimization algorithm
// (§5.3.1): a greedy local search that re-associates border G-BSes between
// sibling regions to minimize the inter-region handovers the initiator
// controller must mediate, subject to per-region control-plane load bounds.
//
// The algorithm is pure — it consumes a handover graph, an assignment and
// load data, and produces a move sequence — so it is usable both by the
// live reconfiguration protocol (internal/core) and by the trace-driven
// Fig. 12 simulation.
package regionopt

import (
	"sort"

	"repro/internal/dataplane"
	"repro/internal/ltetrace"
)

// Assignment maps each G-BS node of the handover graph to its region (the
// child G-switch it is currently associated with).
type Assignment map[dataplane.DeviceID]string

// Clone copies an assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Bounds are the §5.3.1 per-region control-plane load constraints: "we
// assume we have the lower bound LBi and the upper bound UBi on the amount
// of control plane loads ... that each G-switch (or actual child
// controller) can handle."
type Bounds struct {
	Lower, Upper float64
}

// BoundsFromInitial derives bounds as ±pct of the initial load, matching
// the evaluation setup ("each GS should not handle more (less) than 30% of
// their maximum (minimum) initial cellular loads").
func BoundsFromInitial(initial map[string]float64, pct float64) map[string]Bounds {
	out := make(map[string]Bounds, len(initial))
	for r, v := range initial {
		out[r] = Bounds{Lower: v * (1 - pct), Upper: v * (1 + pct)}
	}
	return out
}

// Problem is one optimization instance at an initiator controller.
type Problem struct {
	// Graph is the handover graph over G-BSes (border G-BSes exposed
	// one-to-one plus aggregated internal G-BSes).
	Graph *ltetrace.HandoverGraph
	// Assign is the current G-BS → region association.
	Assign Assignment
	// Movable marks border G-BSes eligible for re-association; internal
	// G-BSes are never movable.
	Movable map[dataplane.DeviceID]bool
	// Load is each G-BS's control-plane load contribution (e.g. UE
	// arrivals per minute).
	Load map[dataplane.DeviceID]float64
	// Bounds constrain each region's total load. Regions without bounds
	// are unconstrained.
	Bounds map[string]Bounds
	// Adjacent reports whether a border G-BS may move between two regions
	// (the source and destination G-switches must share an inter-G-switch
	// link). Nil means all region pairs are adjacent.
	Adjacent func(from, to string) bool
}

// Move is one applied re-association.
type Move struct {
	GBS      dataplane.DeviceID
	From, To string
	Gain     int
}

// Result is the optimization outcome.
type Result struct {
	Moves  []Move
	Before int // inter-region handovers before
	After  int // after
	Assign Assignment
	// RegionLoad is the final per-region load.
	RegionLoad map[string]float64
}

// CrossWeight sums handover-graph edge weights whose endpoints lie in
// different regions — the inter-region handover load the initiator handles.
func CrossWeight(g *ltetrace.HandoverGraph, assign Assignment) int {
	total := 0
	for _, e := range g.Edges() {
		ra, oka := assign[e.Key.A]
		rb, okb := assign[e.Key.B]
		if oka && okb && ra != rb {
			total += e.Weight
		}
	}
	return total
}

// Optimize runs the greedy algorithm: at each step it selects the movable
// border G-BS and destination region yielding the maximum positive gain
// (reduction in inter-region handovers) that respects load bounds, applies
// it, and repeats until no positive gain remains.
func Optimize(p Problem) Result {
	assign := p.Assign.Clone()
	res := Result{Before: CrossWeight(p.Graph, p.Assign), Assign: assign}

	regionLoad := make(map[string]float64)
	regions := map[string]bool{}
	for gbs, r := range assign {
		regionLoad[r] += p.Load[gbs]
		regions[r] = true
	}
	regionList := make([]string, 0, len(regions))
	for r := range regions {
		regionList = append(regionList, r)
	}
	sort.Strings(regionList)

	// crossTo[gbs][region] = total edge weight from gbs into that region.
	crossTo := func(gbs dataplane.DeviceID, region string) int {
		total := 0
		for _, e := range p.Graph.NeighborWeights(gbs) {
			other := e.Key.A
			if other == gbs {
				other = e.Key.B
			}
			if assign[other] == region {
				total += e.Weight
			}
		}
		return total
	}

	movable := make([]dataplane.DeviceID, 0, len(p.Movable))
	for gbs, ok := range p.Movable {
		if ok {
			movable = append(movable, gbs)
		}
	}
	dataplane.SortDeviceIDs(movable)

	// The loop terminates because every move has strictly positive gain.
	for {
		var best *Move
		for _, gbs := range movable {
			from, ok := assign[gbs]
			if !ok {
				continue
			}
			stay := crossTo(gbs, from)
			for _, to := range regionList {
				if to == from {
					continue
				}
				if p.Adjacent != nil && !p.Adjacent(from, to) {
					continue
				}
				gain := crossTo(gbs, to) - stay
				if gain <= 0 {
					continue
				}
				if !loadOK(p, regionLoad, gbs, from, to) {
					continue
				}
				if best == nil || gain > best.Gain ||
					(gain == best.Gain && (gbs < best.GBS || (gbs == best.GBS && to < best.To))) {
					best = &Move{GBS: gbs, From: from, To: to, Gain: gain}
				}
			}
		}
		if best == nil {
			break
		}
		assign[best.GBS] = best.To
		regionLoad[best.From] -= p.Load[best.GBS]
		regionLoad[best.To] += p.Load[best.GBS]
		res.Moves = append(res.Moves, *best)
	}

	res.After = CrossWeight(p.Graph, assign)
	res.RegionLoad = regionLoad
	return res
}

func loadOK(p Problem, regionLoad map[string]float64, gbs dataplane.DeviceID, from, to string) bool {
	l := p.Load[gbs]
	if b, ok := p.Bounds[from]; ok && regionLoad[from]-l < b.Lower {
		return false
	}
	if b, ok := p.Bounds[to]; ok && regionLoad[to]+l > b.Upper {
		return false
	}
	return true
}
