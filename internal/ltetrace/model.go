package ltetrace

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataplane"
	"repro/internal/simnet"
)

// Params configures the workload model. Zero values select paper-scale
// defaults (1000 base stations, 1M UEs, metropolitan plane).
type Params struct {
	Seed int64
	// NumBS is the base-station count (paper: "more than 1000").
	NumBS int
	// NumUEs is the subscriber population (paper: ~1 million).
	NumUEs int
	// PlaneSize matches the topology coordinate plane.
	PlaneSize float64
	// Hotspots is the number of dense urban clusters.
	Hotspots int
	// NeighborCount is the number of geographic neighbors eligible as
	// handover targets per BS.
	NeighborCount int
	// PeakBearerPerBS is the peak-hour per-BS bearer arrival rate per
	// minute. The Fig. 11a per-leaf aggregate reaches ~1e5/min with ~250
	// BSes per leaf region.
	PeakBearerPerBS float64
	// PeakUEArrivalPerBS is the peak per-BS UE attach rate per minute
	// (Fig. 11b: 1000–3000 per leaf).
	PeakUEArrivalPerBS float64
	// PeakHandoverPerBS is the peak per-BS handover rate per minute
	// (Fig. 11c: 1000–4000 per leaf).
	PeakHandoverPerBS float64
}

func (p *Params) defaults() {
	if p.NumBS == 0 {
		p.NumBS = 1000
	}
	if p.NumUEs == 0 {
		p.NumUEs = 1_000_000
	}
	if p.PlaneSize == 0 {
		p.PlaneSize = 1000
	}
	if p.Hotspots == 0 {
		p.Hotspots = 6
	}
	if p.NeighborCount == 0 {
		p.NeighborCount = 8
	}
	if p.PeakBearerPerBS == 0 {
		p.PeakBearerPerBS = 250
	}
	if p.PeakUEArrivalPerBS == 0 {
		p.PeakUEArrivalPerBS = 8
	}
	if p.PeakHandoverPerBS == 0 {
		p.PeakHandoverPerBS = 10
	}
}

// Model is a deterministic synthetic LTE workload.
type Model struct {
	Params Params
	// BSIDs lists base-station IDs in index order.
	BSIDs []dataplane.DeviceID
	// Locs maps base stations to plane locations.
	Locs map[dataplane.DeviceID]dataplane.GeoPoint
	// Groups are the inferred BS groups (§7.1 algorithm), ring topology,
	// access switches unassigned (set when composing with a topology).
	Groups []*dataplane.BSGroup
	// GroupOf maps each BS to its group.
	GroupOf map[dataplane.DeviceID]dataplane.DeviceID

	idx       map[dataplane.DeviceID]int
	weights   []float64 // per-BS activity weight, mean 1
	neighbors [][]int
	shares    [][]float64 // handover share toward each neighbor, sums to 1
	noiseSeed int64
}

// New builds a model. Same params → identical model.
func New(p Params) *Model {
	p.defaults()
	rng := simnet.RNG(p.Seed, "ltetrace")
	m := &Model{
		Params:  p,
		Locs:    make(map[dataplane.DeviceID]dataplane.GeoPoint, p.NumBS),
		GroupOf: make(map[dataplane.DeviceID]dataplane.DeviceID),
		idx:     make(map[dataplane.DeviceID]int, p.NumBS),
		// mix the seed for the per-(bs,minute) noise hash
		noiseSeed: p.Seed*0x9E3779B9 + 0x85EBCA6B,
	}

	// Hotspot centers: dense metro cores.
	centers := make([]dataplane.GeoPoint, p.Hotspots)
	for i := range centers {
		centers[i] = dataplane.GeoPoint{
			X: (0.15 + 0.7*rng.Float64()) * p.PlaneSize,
			Y: (0.15 + 0.7*rng.Float64()) * p.PlaneSize,
		}
	}

	// Base stations: 60% clustered near hotspots, 40% uniform suburbs.
	for i := 0; i < p.NumBS; i++ {
		id := dataplane.DeviceID(fmt.Sprintf("BS%04d", i))
		var loc dataplane.GeoPoint
		if rng.Float64() < 0.6 && len(centers) > 0 {
			c := centers[rng.Intn(len(centers))]
			spread := p.PlaneSize * 0.06
			loc = dataplane.GeoPoint{
				X: clamp(c.X+rng.NormFloat64()*spread, 0, p.PlaneSize),
				Y: clamp(c.Y+rng.NormFloat64()*spread, 0, p.PlaneSize),
			}
		} else {
			loc = dataplane.GeoPoint{X: rng.Float64() * p.PlaneSize, Y: rng.Float64() * p.PlaneSize}
		}
		m.BSIDs = append(m.BSIDs, id)
		m.Locs[id] = loc
		m.idx[id] = i
	}

	// Heavy-tailed activity weights (lognormal), normalized to mean 1.
	m.weights = make([]float64, p.NumBS)
	var sum float64
	for i := range m.weights {
		m.weights[i] = math.Exp(rng.NormFloat64() * 0.6)
		sum += m.weights[i]
	}
	for i := range m.weights {
		m.weights[i] *= float64(p.NumBS) / sum
	}

	m.buildNeighbors()
	m.inferGroups()
	return m
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// buildNeighbors finds each BS's k nearest neighbors and gravity shares.
func (m *Model) buildNeighbors() {
	n := len(m.BSIDs)
	k := m.Params.NeighborCount
	m.neighbors = make([][]int, n)
	m.shares = make([][]float64, n)
	type nd struct {
		j int
		d float64
	}
	for i := 0; i < n; i++ {
		li := m.Locs[m.BSIDs[i]]
		nds := make([]nd, 0, n-1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			nds = append(nds, nd{j, li.Dist(m.Locs[m.BSIDs[j]])})
		}
		sort.Slice(nds, func(a, b int) bool { return nds[a].d < nds[b].d })
		kk := k
		if kk > len(nds) {
			kk = len(nds)
		}
		nbrs := make([]int, kk)
		shares := make([]float64, kk)
		var tot float64
		for x := 0; x < kk; x++ {
			nbrs[x] = nds[x].j
			// gravity: closer, busier neighbors attract more handovers
			shares[x] = m.weights[nds[x].j] / (nds[x].d + 1)
			tot += shares[x]
		}
		for x := range shares {
			shares[x] /= tot
		}
		m.neighbors[i] = nbrs
		m.shares[i] = shares
	}
}

// inferGroups builds a representative busy-window handover graph at the BS
// level and runs the §7.1 inference.
func (m *Model) inferGroups() {
	g := m.HandoverGraphBS(12*60, 15*60) // a midday window
	for _, id := range m.BSIDs {
		g.AddNode(id)
	}
	m.Groups = InferGroups(g)
	for _, grp := range m.Groups {
		for _, member := range grp.Members() {
			m.GroupOf[member] = grp.ID
		}
	}
}

// MinutesPerDay is the diurnal period.
const MinutesPerDay = 24 * 60

// Diurnal returns the time-of-day load multiplier in (0, 1]: a midday
// shoulder and an evening peak, floored overnight — the double-peak shape
// visible in Fig. 12's load curve.
func Diurnal(minute int) float64 {
	mod := minute % MinutesPerDay
	if mod < 0 {
		mod += MinutesPerDay
	}
	h := float64(mod) / 60
	day := gauss(h, 13, 3.5)
	eve := gauss(h, 20, 2.5)
	v := 0.25 + 0.45*day + 0.75*eve
	if v > 1 {
		v = 1
	}
	return v
}

func gauss(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return math.Exp(-d * d / 2)
}

// noise returns a deterministic pseudo-random multiplier in [1-a, 1+a] for
// (stream, bs, minute).
func (m *Model) noise(stream, bs, minute int, a float64) float64 {
	h := uint64(m.noiseSeed)
	for _, v := range [3]uint64{uint64(stream) + 1, uint64(bs) + 1, uint64(minute) + 1} {
		h ^= v
		h *= 0x100000001B3
		h ^= h >> 29
	}
	u := float64(h%(1<<20)) / float64(1<<20) // [0,1)
	return 1 + a*(2*u-1)
}

const (
	streamBearer = iota
	streamUE
	streamHandover
)

// BearerRate returns the expected bearer arrivals per minute at BS index i
// during the given trace minute.
func (m *Model) BearerRate(i, minute int) float64 {
	return m.Params.PeakBearerPerBS * m.weights[i] * Diurnal(minute) * m.noise(streamBearer, i, minute, 0.2)
}

// UEArrivalRate returns the expected UE attaches per minute at BS index i.
func (m *Model) UEArrivalRate(i, minute int) float64 {
	return m.Params.PeakUEArrivalPerBS * m.weights[i] * Diurnal(minute) * m.noise(streamUE, i, minute, 0.25)
}

// HandoverRate returns the expected outgoing handovers per minute at BS
// index i.
func (m *Model) HandoverRate(i, minute int) float64 {
	return m.Params.PeakHandoverPerBS * m.weights[i] * Diurnal(minute) * m.noise(streamHandover, i, minute, 0.25)
}

// Index returns the model index of a BS ID.
func (m *Model) Index(id dataplane.DeviceID) (int, bool) {
	i, ok := m.idx[id]
	return i, ok
}

// HandoverGraphBS accumulates expected BS-level handover counts over trace
// minutes [from, to).
func (m *Model) HandoverGraphBS(from, to int) *HandoverGraph {
	g := NewHandoverGraph()
	n := len(m.BSIDs)
	// Sum the diurnal-weighted rate per BS over the window, then split
	// across neighbors by gravity share.
	for i := 0; i < n; i++ {
		var total float64
		for t := from; t < to; t++ {
			total += m.HandoverRate(i, t)
		}
		for x, j := range m.neighbors[i] {
			cnt := int(total * m.shares[i][x])
			if cnt > 0 {
				g.Add(m.BSIDs[i], m.BSIDs[j], cnt)
			}
		}
	}
	return g
}

// HandoverGraphGroups aggregates a window's handover graph to the BS-group
// level (the granularity leaf controllers log at, §5.3.1).
func (m *Model) HandoverGraphGroups(from, to int) *HandoverGraph {
	bs := m.HandoverGraphBS(from, to)
	return bs.Relabel(func(id dataplane.DeviceID) dataplane.DeviceID {
		if gid, ok := m.GroupOf[id]; ok {
			return gid
		}
		return id
	})
}

// RegionLoads sums per-minute loads over the BSes assigned to each of k
// regions. assign maps BS ID → region index. Returns bearer, UE-arrival
// and handover aggregates indexed by region.
func (m *Model) RegionLoads(assign map[dataplane.DeviceID]int, k, minute int) (bearer, ue, ho []float64) {
	bearer = make([]float64, k)
	ue = make([]float64, k)
	ho = make([]float64, k)
	for i, id := range m.BSIDs {
		r, ok := assign[id]
		if !ok || r < 0 || r >= k {
			continue
		}
		bearer[r] += m.BearerRate(i, minute)
		ue[r] += m.UEArrivalRate(i, minute)
		ho[r] += m.HandoverRate(i, minute)
	}
	return bearer, ue, ho
}
