// Package routing implements the SoftMoW routing core service (§4.2):
// constrained shortest paths over a controller's topology view, where the
// topology may mix physical switches (free internal traversal) and gigantic
// switches (traversal priced by the child-exposed virtual fabric, §3.2).
//
// The graph is port-expanded: nodes are (device, port) pairs. A link
// contributes one hop plus its latency; traversing a device from one port
// to another contributes that device's internal metrics — zero for physical
// switches, the vFabric entry for G-switches. This makes a parent's
// shortest-path computation consistent with the physical topology
// underneath (local vs global optimality, §4.2).
package routing

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataplane"
	"repro/internal/metrics"
	"repro/internal/nib"
)

// Path-memo observability: hits over hits+misses is the share of
// ShortestPath calls answered without running Dijkstra.
var (
	pathMemoHits   = metrics.NewCounter("routing.path_memo_hits")
	pathMemoMisses = metrics.NewCounter("routing.path_memo_misses")
)

// Graph is a port-expanded routing graph built from a NIB. Once built it
// is immutable, so it may be shared freely across goroutines (the
// controller caches one per NIB generation); per-query Dijkstra scratch
// state lives in an internal pool, making all path computations safe to
// run concurrently. ShortestPath is therefore a pure function of its
// arguments, and memo remembers its answers: born empty in BuildGraph, dead
// with the graph — a topology change builds a new graph and invalidates
// nothing.
type Graph struct {
	nodes map[dataplane.PortRef]int
	refs  []dataplane.PortRef
	adj   [][]edge
	memo  pathMemo

	// scratchPool recycles per-SSSP working state ([]Cost/[]bool/heap
	// slices sized to the node count) so steady-state queries are
	// allocation-free.
	scratchPool sync.Pool
}

// memoMaxSlots caps the path memo, memoProbe the linear-probe run a key
// may occupy: a result whose run is full is computed per call, not stored.
const memoMaxSlots, memoProbe = 4096, 8

// pathKey is everything ShortestPath's answer depends on besides the graph.
type pathKey struct {
	src, dst int32
	obj      Objective
	ct       Constraints
}

// hash mixes the key's words. Keys that differ only in the high bits of
// one word (bandwidths) or only in the low ones (node numbers) must both
// spread over the low bits a slot index is taken from: each round
// multiplies low bits upward and folds high bits down, and the trailing
// zero word is one more round for the last real word.
func (k *pathKey) hash() uint64 {
	h := uint64(uint32(k.src))<<32 | uint64(uint32(k.dst))
	for _, w := range [...]uint64{uint64(k.obj), uint64(k.ct.MaxHops), uint64(k.ct.MaxLatency), math.Float64bits(k.ct.MinBandwidth), 0} {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// memoEntry is one remembered answer; a nil path remembers ErrNoPath.
type memoEntry struct {
	key  pathKey
	path *Path
}

// pathMemo is an open-addressed table of write-once slots, its length a
// power of two fixed by BuildGraph: a lookup is a few atomic loads and
// takes no lock, a fill is one compare-and-swap, and nothing is ever
// copied, evicted or invalidated.
type pathMemo []atomic.Pointer[memoEntry]

// find probes key's run: the entry remembered for key, or else the run's
// first empty slot (nil when the run is full). Slots are write-once and
// every fill of a key walks the same run, so a key never occupies two.
func (m pathMemo) find(key *pathKey) (*memoEntry, *atomic.Pointer[memoEntry]) {
	h, mask := key.hash(), uint64(len(m)-1)
	for i := uint64(0); i < memoProbe; i++ {
		slot := &m[(h+i)&mask]
		e := slot.Load()
		if e == nil {
			return nil, slot
		}
		if e.key == *key {
			return e, nil
		}
	}
	return nil, nil
}

type edge struct {
	to      int
	hops    int
	latency time.Duration
	// bandwidth is the available bandwidth bound (Mbps); math.Inf(1) for
	// unconstrained internal traversal.
	bandwidth float64
	// link marks link edges (vs intra-device edges); used to reconstruct
	// installable paths.
	link bool
}

// BuildGraph constructs a routing graph from a controller's NIB view.
func BuildGraph(n *nib.NIB) *Graph {
	g := &Graph{nodes: make(map[dataplane.PortRef]int)}

	id := func(ref dataplane.PortRef) int {
		if i, ok := g.nodes[ref]; ok {
			return i
		}
		i := len(g.refs)
		g.nodes[ref] = i
		g.refs = append(g.refs, ref)
		g.adj = append(g.adj, nil)
		return i
	}

	// Intra-device edges.
	for _, d := range n.Devices(dataplane.KindUnknown) {
		switch d.Kind {
		case dataplane.KindSwitch:
			// Physical switch: free traversal between all port pairs.
			ports := d.Ports
			for i := 0; i < len(ports); i++ {
				for j := 0; j < len(ports); j++ {
					if i == j {
						continue
					}
					a := id(dataplane.PortRef{Dev: d.ID, Port: ports[i].ID})
					b := id(dataplane.PortRef{Dev: d.ID, Port: ports[j].ID})
					g.adj[a] = append(g.adj[a], edge{to: b, bandwidth: math.Inf(1)})
				}
			}
		case dataplane.KindGSwitch:
			// G-switch: traversal priced by the virtual fabric.
			if d.Fabric == nil {
				continue
			}
			for _, pp := range d.Fabric.Pairs() {
				m, _ := d.Fabric.Get(pp.A, pp.B)
				if !m.Reachable {
					continue
				}
				a := id(dataplane.PortRef{Dev: d.ID, Port: pp.A})
				b := id(dataplane.PortRef{Dev: d.ID, Port: pp.B})
				e := edge{hops: m.Hops, latency: m.Latency, bandwidth: m.Bandwidth}
				g.adj[a] = append(g.adj[a], edge{to: b, hops: e.hops, latency: e.latency, bandwidth: e.bandwidth})
				g.adj[b] = append(g.adj[b], edge{to: a, hops: e.hops, latency: e.latency, bandwidth: e.bandwidth})
			}
		}
	}

	// Link edges.
	for _, l := range n.Links() {
		if !l.Up {
			continue
		}
		a := id(l.A)
		b := id(l.B)
		g.adj[a] = append(g.adj[a], edge{to: b, hops: 1, latency: l.Latency, bandwidth: l.Bandwidth, link: true})
		g.adj[b] = append(g.adj[b], edge{to: a, hops: 1, latency: l.Latency, bandwidth: l.Bandwidth, link: true})
	}

	// Deterministic adjacency order.
	for i := range g.adj {
		sort.Slice(g.adj[i], func(x, y int) bool { return g.less(g.adj[i][x], g.adj[i][y]) })
	}
	nn := len(g.refs)
	g.scratchPool.New = func() interface{} { return newScratch(nn) }
	// Eight memo slots per node: a region asks for tens of attach-point ×
	// egress pairs, not for all pairs, and a small graph is rebuilt often.
	slots := 64
	for slots < 8*nn && slots < memoMaxSlots {
		slots <<= 1
	}
	g.memo = make(pathMemo, slots)
	return g
}

func (g *Graph) less(a, b edge) bool {
	ra, rb := g.refs[a.to], g.refs[b.to]
	if ra.Dev != rb.Dev {
		return ra.Dev < rb.Dev
	}
	if ra.Port != rb.Port {
		return ra.Port < rb.Port
	}
	return !a.link && b.link
}

// HasNode reports whether a port ref is present.
func (g *Graph) HasNode(ref dataplane.PortRef) bool {
	_, ok := g.nodes[ref]
	return ok
}
