// Package ltetrace synthesizes the LTE workload the paper measures from a
// proprietary week-long bearer-level trace of a large metropolitan network
// (~1000+ base stations, ~1M devices; §7.1). The generator reproduces the
// trace's statistical structure used by the evaluation:
//
//   - per-minute bearer-arrival, UE-arrival and handover rates per base
//     station with diurnal peaks and heavy-tailed per-BS popularity
//     (Fig. 11a–c);
//   - geographically local handover graphs that vary across time-of-day
//     (Fig. 12, §5.3.1);
//   - the BS-group inference algorithm of §7.1 (greedy minimum-weight edge
//     removal, components of at most 6 stations, ring intra-group
//     topology).
package ltetrace

import (
	"sort"

	"repro/internal/dataplane"
)

// EdgeKey is an unordered pair of handover-graph nodes.
type EdgeKey struct {
	A, B dataplane.DeviceID
}

// NewEdgeKey normalizes node order.
func NewEdgeKey(a, b dataplane.DeviceID) EdgeKey {
	if b < a {
		a, b = b, a
	}
	return EdgeKey{A: a, B: b}
}

// HandoverGraph counts handovers between node pairs over a time window
// (§5.3.1: "each node of the graph is a G-BS and an edge shows the number
// of handovers in the past time window between two nodes"). Nodes may be
// base stations, BS groups or G-BSes depending on the aggregation level.
type HandoverGraph struct {
	counts map[EdgeKey]int
	nodes  map[dataplane.DeviceID]bool
}

// NewHandoverGraph returns an empty graph.
func NewHandoverGraph() *HandoverGraph {
	return &HandoverGraph{
		counts: make(map[EdgeKey]int),
		nodes:  make(map[dataplane.DeviceID]bool),
	}
}

// AddNode ensures a node exists (isolated nodes matter for group
// inference).
func (g *HandoverGraph) AddNode(n dataplane.DeviceID) {
	g.nodes[n] = true
}

// Add accumulates n handovers between a and b.
func (g *HandoverGraph) Add(a, b dataplane.DeviceID, n int) {
	if a == b || n == 0 {
		return
	}
	g.nodes[a] = true
	g.nodes[b] = true
	g.counts[NewEdgeKey(a, b)] += n
}

// Nodes returns all nodes in deterministic order.
func (g *HandoverGraph) Nodes() []dataplane.DeviceID {
	out := make([]dataplane.DeviceID, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	return dataplane.SortDeviceIDs(out)
}

// Edge is one weighted handover-graph edge.
type Edge struct {
	Key    EdgeKey
	Weight int
}

// Edges returns all positive-weight edges in deterministic order.
func (g *HandoverGraph) Edges() []Edge {
	out := make([]Edge, 0, len(g.counts))
	for k, w := range g.counts {
		if w > 0 {
			out = append(out, Edge{Key: k, Weight: w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.A != out[j].Key.A {
			return out[i].Key.A < out[j].Key.A
		}
		return out[i].Key.B < out[j].Key.B
	})
	return out
}

// NeighborWeights returns, for node n, each neighbor and the edge weight,
// in deterministic order.
func (g *HandoverGraph) NeighborWeights(n dataplane.DeviceID) []Edge {
	var out []Edge
	for k, w := range g.counts {
		if w <= 0 {
			continue
		}
		if k.A == n || k.B == n {
			out = append(out, Edge{Key: k, Weight: w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.A != out[j].Key.A {
			return out[i].Key.A < out[j].Key.A
		}
		return out[i].Key.B < out[j].Key.B
	})
	return out
}

// Relabel builds a new graph with nodes mapped through f; edges whose
// endpoints map to the same node are dropped (they become internal). This
// is how BS-level graphs aggregate to group-level and G-BS-level graphs.
func (g *HandoverGraph) Relabel(f func(dataplane.DeviceID) dataplane.DeviceID) *HandoverGraph {
	out := NewHandoverGraph()
	for n := range g.nodes {
		out.AddNode(f(n))
	}
	for k, w := range g.counts {
		out.Add(f(k.A), f(k.B), w)
	}
	return out
}
