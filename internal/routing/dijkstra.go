package routing

import (
	"errors"
	"math"
	"slices"
	"time"

	"repro/internal/dataplane"
)

// Objective selects the path-cost order.
type Objective int

const (
	// MinHops minimizes hop count, breaking ties by latency (the paper's
	// default for internal path computation, §4.2).
	MinHops Objective = iota
	// MinLatency minimizes latency, breaking ties by hops (for
	// delay-sensitive service policies, §2.2).
	MinLatency
)

// Constraints bound admissible paths (from bearer-request QoS, §5.1).
// Zero values mean unconstrained.
type Constraints struct {
	MaxHops    int
	MaxLatency time.Duration
	// MinBandwidth requires every traversed edge to have at least this
	// many Mbps available.
	MinBandwidth float64
}

// Cost is a path's accumulated metrics.
type Cost struct {
	Hops    int
	Latency time.Duration
	// Bottleneck is the minimum available bandwidth along the path.
	Bottleneck float64
}

// less orders costs under an objective (lexicographic).
func (c Cost) less(o Cost, obj Objective) bool {
	if obj == MinLatency {
		if c.Latency != o.Latency {
			return c.Latency < o.Latency
		}
		return c.Hops < o.Hops
	}
	if c.Hops != o.Hops {
		return c.Hops < o.Hops
	}
	return c.Latency < o.Latency
}

// violates reports whether the cost breaks constraints.
func (c Cost) violates(ct Constraints) bool {
	if ct.MaxHops > 0 && c.Hops > ct.MaxHops {
		return true
	}
	if ct.MaxLatency > 0 && c.Latency > ct.MaxLatency {
		return true
	}
	return false
}

// Path is a computed route: the port-ref sequence alternating device
// traversals and link crossings, plus total cost. A Path is immutable once
// constructed — ShortestPath hands one *Path to every caller asking the
// same question — so its fields and accessor results are read-only.
type Path struct {
	// Points is the node sequence (device, port) from source to
	// destination, inclusive.
	Points []dataplane.PortRef
	Cost   Cost
	// LinkCrossings marks, for each step i → i+1, whether it is a link
	// crossing (true) or an intra-device traversal (false).
	LinkCrossings []bool

	// segs and devs back Segments and Devices, derived once by
	// ShortestPath; nil on a Path assembled by hand, which derives per call.
	segs []Segment
	devs []dataplane.DeviceID
}

// Devices returns the distinct device sequence along the path. The slice
// is shared and read-only; it is full, so appending to it copies.
func (p *Path) Devices() []dataplane.DeviceID {
	if p.devs != nil {
		return p.devs
	}
	_, devs := traversals(p.Points)
	return devs
}

// Segments returns per-device (device, inPort, outPort) triples: the unit
// of rule installation. The first segment's inPort is the source point's
// port; the last segment's outPort is the destination port. The slice is
// shared, read-only and full, like Devices'.
func (p *Path) Segments() []Segment {
	if p.segs != nil {
		return p.segs
	}
	segs, _ := traversals(p.Points)
	return segs
}

// traversals groups points into per-device runs: one Segment and one
// device ID per run, both slices clipped to their length.
func traversals(points []dataplane.PortRef) ([]Segment, []dataplane.DeviceID) {
	segs := make([]Segment, 0, len(points))
	devs := make([]dataplane.DeviceID, 0, len(points))
	for i, pt := range points {
		if i == 0 || points[i-1].Dev != pt.Dev {
			segs = append(segs, Segment{Dev: pt.Dev, InPort: pt.Port})
			devs = append(devs, pt.Dev)
		}
		segs[len(segs)-1].OutPort = pt.Port
	}
	return slices.Clip(segs), slices.Clip(devs)
}

// Segment is one device's traversal along a path.
type Segment struct {
	Dev     dataplane.DeviceID
	InPort  dataplane.PortID
	OutPort dataplane.PortID
}

// ErrNoPath is returned when no admissible path exists.
var ErrNoPath = errors.New("routing: no admissible path")

// pqEntry is one heap element: a node plus the tentative cost it was
// enqueued with (lazy-deletion Dijkstra).
type pqEntry struct {
	node int32
	cost Cost
}

// costHeap is a hand-rolled binary min-heap over pqEntry values ordered by
// an Objective. Value storage on a reused backing slice keeps the relax
// loop allocation-free (container/heap boxes every Push through
// interface{} and forced per-item index bookkeeping that nothing read).
type costHeap struct {
	entries []pqEntry
	obj     Objective
}

func (h *costHeap) reset(obj Objective) {
	h.entries = h.entries[:0]
	h.obj = obj
}

func (h *costHeap) push(e pqEntry) {
	h.entries = append(h.entries, e)
	i := len(h.entries) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.entries[i].cost.less(h.entries[p].cost, h.obj) {
			break
		}
		h.entries[i], h.entries[p] = h.entries[p], h.entries[i]
		i = p
	}
}

func (h *costHeap) pop() pqEntry {
	top := h.entries[0]
	n := len(h.entries) - 1
	h.entries[0] = h.entries[n]
	h.entries = h.entries[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.entries[l].cost.less(h.entries[m].cost, h.obj) {
			m = l
		}
		if r < n && h.entries[r].cost.less(h.entries[m].cost, h.obj) {
			m = r
		}
		if m == i {
			break
		}
		h.entries[i], h.entries[m] = h.entries[m], h.entries[i]
		i = m
	}
	return top
}

// scratch is the reusable per-SSSP working state, sized to the graph's
// node count and pooled on the Graph so steady-state path computations
// allocate nothing but their results.
type scratch struct {
	dist     []Cost
	seen     []bool
	prev     []int32
	prevLink []bool
	heap     costHeap
}

func newScratch(n int) *scratch {
	return &scratch{
		dist:     make([]Cost, n),
		seen:     make([]bool, n),
		prev:     make([]int32, n),
		prevLink: make([]bool, n),
		heap:     costHeap{entries: make([]pqEntry, 0, n)},
	}
}

// unreached is the Dijkstra initialization sentinel: any real cost
// compares less under both objectives.
var unreached = Cost{Hops: math.MaxInt32, Latency: time.Duration(math.MaxInt64 / 4)}

// sssp is the single relax loop shared by ShortestPath, MetricsFrom, and
// PairMetrics: Dijkstra from s under obj and ct. When dst >= 0 the search
// stops as soon as dst is settled; trackPrev records predecessors for path
// reconstruction. After it returns, sc.seen marks exactly the settled
// (reachable, constraint-admissible) nodes and sc.dist their final costs.
func (g *Graph) sssp(sc *scratch, s, dst int, obj Objective, ct Constraints, trackPrev bool) {
	n := len(g.refs)
	for i := 0; i < n; i++ {
		sc.dist[i] = unreached
		sc.seen[i] = false
	}
	if trackPrev {
		for i := 0; i < n; i++ {
			sc.prev[i] = -1
			sc.prevLink[i] = false
		}
	}
	sc.dist[s] = Cost{Bottleneck: math.Inf(1)}
	sc.heap.reset(obj)
	sc.heap.push(pqEntry{node: int32(s), cost: sc.dist[s]})
	for len(sc.heap.entries) > 0 {
		it := sc.heap.pop()
		u := int(it.node)
		if sc.seen[u] {
			continue
		}
		sc.seen[u] = true
		if u == dst {
			return
		}
		du := sc.dist[u]
		for _, e := range g.adj[u] {
			if sc.seen[e.to] {
				continue
			}
			if ct.MinBandwidth > 0 && e.bandwidth < ct.MinBandwidth {
				continue
			}
			nc := Cost{
				Hops:       du.Hops + e.hops,
				Latency:    du.Latency + e.latency,
				Bottleneck: math.Min(du.Bottleneck, e.bandwidth),
			}
			if nc.violates(ct) {
				continue
			}
			if nc.less(sc.dist[e.to], obj) {
				sc.dist[e.to] = nc
				if trackPrev {
					sc.prev[e.to] = int32(u)
					sc.prevLink[e.to] = e.link
				}
				sc.heap.push(pqEntry{node: int32(e.to), cost: nc})
			}
		}
	}
}

// ShortestPath returns the optimal path from src to dst (port refs present
// in the graph) under the objective and constraints. The answer — a path
// or ErrNoPath — is computed once per (src, dst, obj, ct) and graph: a
// repeated question gets the same shared, read-only *Path back.
func (g *Graph) ShortestPath(src, dst dataplane.PortRef, obj Objective, ct Constraints) (*Path, error) {
	s, okS := g.nodes[src]
	d, okD := g.nodes[dst]
	if !okS || !okD {
		return nil, ErrNoPath
	}
	key := pathKey{src: int32(s), dst: int32(d), obj: obj, ct: ct}
	e, free := g.memo.find(&key)
	if e != nil {
		pathMemoHits.Inc()
	} else {
		pathMemoMisses.Inc()
		e = &memoEntry{key: key, path: g.shortestPath(s, d, obj, ct)}
		// A fill that loses its slot looks again: it adopts the same key's
		// entry, or tries the run's next empty slot.
		for free != nil && !free.CompareAndSwap(nil, e) {
			var won *memoEntry
			if won, free = g.memo.find(&key); won != nil {
				e = won
			}
		}
	}
	if e.path == nil {
		return nil, ErrNoPath
	}
	return e.path, nil
}

// shortestPath is the uncached body of ShortestPath: one Dijkstra run from
// node s to node d; nil when no admissible path exists.
func (g *Graph) shortestPath(s, d int, obj Objective, ct Constraints) *Path {
	sc := g.scratchPool.Get().(*scratch)
	defer g.scratchPool.Put(sc)
	g.sssp(sc, s, d, obj, ct, true)
	if !sc.seen[d] || sc.dist[d].violates(ct) {
		return nil
	}
	// Reconstruct; only the returned Path's slices escape.
	length := 1
	for at := d; sc.prev[at] != -1; at = int(sc.prev[at]) {
		length++
	}
	p := &Path{Cost: sc.dist[d], Points: make([]dataplane.PortRef, length)}
	if length > 1 {
		p.LinkCrossings = make([]bool, length-1)
	}
	at := d
	for i := length - 1; ; i-- {
		p.Points[i] = g.refs[at]
		if sc.prev[at] == -1 {
			break
		}
		p.LinkCrossings[i-1] = sc.prevLink[at]
		at = int(sc.prev[at])
	}
	p.segs, p.devs = traversals(p.Points)
	return p
}

// MetricsFrom runs one single-source shortest-path computation (MinHops
// objective) and returns the vFabric metrics from src to every reachable
// port ref. It is the bulk variant of PairMetrics used when abstracting
// regions with many border ports (one SSSP per exposed port instead of one
// Dijkstra per pair). The graph is immutable once built, so concurrent
// MetricsFrom calls are safe — the abstraction recompute fans them out
// across a worker pool.
func (g *Graph) MetricsFrom(src dataplane.PortRef) map[dataplane.PortRef]dataplane.PathMetrics {
	s, ok := g.nodes[src]
	if !ok {
		return nil
	}
	sc := g.scratchPool.Get().(*scratch)
	defer g.scratchPool.Put(sc)
	g.sssp(sc, s, -1, MinHops, Constraints{}, false)
	n := len(g.refs)
	out := make(map[dataplane.PortRef]dataplane.PathMetrics, n)
	for i := 0; i < n; i++ {
		if !sc.seen[i] {
			continue
		}
		out[g.refs[i]] = dataplane.PathMetrics{
			Latency:   sc.dist[i].Latency,
			Hops:      sc.dist[i].Hops,
			Bandwidth: sc.dist[i].Bottleneck,
			Reachable: true,
		}
	}
	return out
}

// PairMetrics computes the vFabric annotation for a border-port pair: the
// MinHops shortest path's cost, with the bottleneck bandwidth of that path
// (§3.2). Returns an unreachable PathMetrics when no path exists. Only the
// cost triple is computed — no predecessor tracking or path
// reconstruction — since it is called O(ports²) from the abstraction
// recompute.
func (g *Graph) PairMetrics(a, b dataplane.PortRef) dataplane.PathMetrics {
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
