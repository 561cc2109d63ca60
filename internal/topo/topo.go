// Package topo generates RocketFuel-class ISP topologies for the SoftMoW
// evaluation (§7.1 builds the data plane from the RocketFuel dataset; we
// substitute a deterministic synthetic generator with the same structural
// features: PoP-clustered switches, short intra-PoP links, a long-haul
// inter-PoP backbone, and geographic placement so regions have meaningful
// neighborhoods).
//
// The package also provides the balanced region partitioner used to create
// "approximately equal-sized logical regions with similar cellular loads"
// (§7.1) and egress-point placement for the Fig. 8/9 experiments.
package topo

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/dataplane"
	"repro/internal/simnet"
)

// Params configures topology generation. Zero values select evaluation
// defaults matching the paper (321 switches, 5 ms links, 1 Gbps).
type Params struct {
	Seed        int64
	NumSwitches int
	NumPoPs     int
	// ChordsPerPoP adds intra-PoP redundancy beyond the PoP ring.
	ChordsPerPoP int
	// BackboneNeighbors connects each PoP to its n nearest PoPs.
	BackboneNeighbors int
	// LongHaulLinks adds extra far-apart PoP pairs for path diversity.
	LongHaulLinks int
	// FixedLatency, when nonzero, sets every link's latency (the paper
	// uses 5 ms); otherwise latency is distance-proportional.
	FixedLatency time.Duration
	// BandwidthMbps is the per-link capacity (paper: 1 Gbps).
	BandwidthMbps float64
	// PlaneSize is the side of the square coordinate plane.
	PlaneSize float64
}

func (p *Params) defaults() {
	if p.NumSwitches == 0 {
		p.NumSwitches = 321
	}
	if p.NumPoPs == 0 {
		p.NumPoPs = p.NumSwitches / 8
		if p.NumPoPs < 4 {
			p.NumPoPs = 4
		}
	}
	if p.ChordsPerPoP == 0 {
		p.ChordsPerPoP = 2
	}
	if p.BackboneNeighbors == 0 {
		p.BackboneNeighbors = 5
	}
	if p.LongHaulLinks == 0 {
		// RocketFuel-class ISP maps are rich in long-haul redundancy; the
		// Table 1 root row implies roughly a quarter of all links cross
		// region boundaries.
		p.LongHaulLinks = p.NumPoPs * 5 / 2
	}
	if p.FixedLatency == 0 {
		p.FixedLatency = 5 * time.Millisecond
	}
	if p.BandwidthMbps == 0 {
		p.BandwidthMbps = 1000
	}
	if p.PlaneSize == 0 {
		p.PlaneSize = 1000
	}
}

// PoP is one point of presence: a cluster of co-located switches.
type PoP struct {
	ID       int
	Center   dataplane.GeoPoint
	Switches []dataplane.DeviceID
}

// Topology is a generated data plane plus placement metadata.
type Topology struct {
	Net       *dataplane.Network
	PoPs      []PoP
	Locations map[dataplane.DeviceID]dataplane.GeoPoint
	PoPOf     map[dataplane.DeviceID]int
	Params    Params
}

// SwitchIDs returns all switch IDs in deterministic order.
func (t *Topology) SwitchIDs() []dataplane.DeviceID {
	ids := make([]dataplane.DeviceID, 0, len(t.Locations))
	for _, sw := range t.Net.Switches() {
		ids = append(ids, sw.ID)
	}
	return ids
}

// Generate builds a topology from params. Same params → same topology.
func Generate(p Params) *Topology {
	p.defaults()
	rng := simnet.RNG(p.Seed, "topo")
	t := &Topology{
		Net:       dataplane.NewNetwork(),
		Locations: make(map[dataplane.DeviceID]dataplane.GeoPoint),
		PoPOf:     make(map[dataplane.DeviceID]int),
		Params:    p,
	}

	// Place PoP centers with minimum-separation rejection sampling so the
	// plane is covered reasonably evenly.
	minSep := p.PlaneSize / math.Sqrt(float64(p.NumPoPs)) / 2
	for i := 0; i < p.NumPoPs; i++ {
		var c dataplane.GeoPoint
		for try := 0; ; try++ {
			c = dataplane.GeoPoint{X: rng.Float64() * p.PlaneSize, Y: rng.Float64() * p.PlaneSize}
			ok := true
			for _, q := range t.PoPs {
				if c.Dist(q.Center) < minSep {
					ok = false
					break
				}
			}
			if ok || try > 50 {
				break
			}
		}
		t.PoPs = append(t.PoPs, PoP{ID: i, Center: c})
	}

	// Assign switches to PoPs: each PoP gets an even share, remainders to
	// the first PoPs; switches scatter around their PoP center.
	swIdx := 0
	for i := range t.PoPs {
		share := p.NumSwitches / p.NumPoPs
		if i < p.NumSwitches%p.NumPoPs {
			share++
		}
		for j := 0; j < share; j++ {
			id := dataplane.DeviceID(fmt.Sprintf("SW%03d", swIdx))
			swIdx++
			t.Net.AddSwitch(id)
			spread := minSep / 2
			loc := dataplane.GeoPoint{
				X: t.PoPs[i].Center.X + (rng.Float64()-0.5)*spread,
				Y: t.PoPs[i].Center.Y + (rng.Float64()-0.5)*spread,
			}
			t.Locations[id] = loc
			t.PoPOf[id] = i
			t.PoPs[i].Switches = append(t.PoPs[i].Switches, id)
		}
	}

	latency := func(a, b dataplane.DeviceID) time.Duration {
		if p.FixedLatency > 0 {
			return p.FixedLatency
		}
		// ~5 µs/km propagation on the synthetic plane (1 unit = 1 km).
		d := t.Locations[a].Dist(t.Locations[b])
		l := time.Duration(d*5) * time.Microsecond
		if l < time.Millisecond {
			l = time.Millisecond
		}
		return l
	}
	connect := func(a, b dataplane.DeviceID) {
		if _, err := t.Net.Connect(a, b, latency(a, b), p.BandwidthMbps); err != nil {
			panic(err) // generation bug
		}
	}

	// Intra-PoP: ring plus random chords.
	for i := range t.PoPs {
		sws := t.PoPs[i].Switches
		n := len(sws)
		if n == 0 {
			continue
		}
		for j := 0; j < n-1; j++ {
			connect(sws[j], sws[j+1])
		}
		if n > 2 {
			connect(sws[n-1], sws[0])
		}
		for c := 0; c < p.ChordsPerPoP && n > 3; c++ {
			a := rng.Intn(n)
			b := (a + 2 + rng.Intn(n-3)) % n
			connect(sws[a], sws[b])
		}
	}

	// Backbone: each PoP links its gateway switch to the gateways of its
	// nearest neighbors; duplicate pairs are skipped.
	gateway := func(pop int) dataplane.DeviceID { return t.PoPs[pop].Switches[0] }
	linked := make(map[[2]int]bool)
	addBackbone := func(a, b int) {
		if a == b {
			return
		}
		k := [2]int{a, b}
		if a > b {
			k = [2]int{b, a}
		}
		if linked[k] {
			return
		}
		linked[k] = true
		connect(gateway(a), gateway(b))
	}
	for i := range t.PoPs {
		type nd struct {
			j int
			d float64
		}
		var nds []nd
		for j := range t.PoPs {
			if i == j {
				continue
			}
			nds = append(nds, nd{j, t.PoPs[i].Center.Dist(t.PoPs[j].Center)})
		}
		sort.Slice(nds, func(a, b int) bool { return nds[a].d < nds[b].d })
		for k := 0; k < p.BackboneNeighbors && k < len(nds); k++ {
			addBackbone(i, nds[k].j)
		}
	}
	// Long-haul diversity links between random far PoPs.
	for c := 0; c < p.LongHaulLinks; c++ {
		a := rng.Intn(len(t.PoPs))
		b := rng.Intn(len(t.PoPs))
		addBackbone(a, b)
	}

	// Guarantee global connectivity: union the PoP graph and link any
	// disconnected component to the nearest connected PoP.
	t.ensureConnected(addBackbone)
	return t
}

// ensureConnected links PoP-level components until the switch graph is one
// component.
func (t *Topology) ensureConnected(addBackbone func(a, b int)) {
	for {
		comp := t.components()
		if len(comp) <= 1 {
			return
		}
		// Link the first switch's PoP of component 1 to the nearest PoP in
		// component 0.
		popIn := func(c []dataplane.DeviceID) int { return t.PoPOf[c[0]] }
		base := popIn(comp[0])
		other := popIn(comp[1])
		addBackbone(base, other)
	}
}

// components returns the connected components of the switch graph.
func (t *Topology) components() [][]dataplane.DeviceID {
	visited := make(map[dataplane.DeviceID]bool)
	var comps [][]dataplane.DeviceID
	for _, sw := range t.Net.Switches() {
		if visited[sw.ID] {
			continue
		}
		var comp []dataplane.DeviceID
		queue := []dataplane.DeviceID{sw.ID}
		visited[sw.ID] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			for _, adj := range t.Net.Neighbors(cur) {
				if !visited[adj.Remote.Dev] {
					visited[adj.Remote.Dev] = true
					queue = append(queue, adj.Remote.Dev)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// PlaceEgressPoints selects k geographically spread switches (farthest-
// point sampling over PoP gateways) and registers an egress point on each,
// returning the egress points. This models the Fig. 8 sweep over 2/4/8
// Internet egress points.
func (t *Topology) PlaceEgressPoints(k int) []*dataplane.EgressPoint {
	if k <= 0 || len(t.PoPs) == 0 {
		return nil
	}
	chosen := t.SpreadPoPs(k)
	eps := make([]*dataplane.EgressPoint, 0, k)
	for i, pop := range chosen {
		sw := t.PoPs[pop].Switches[0]
		ep, err := t.Net.AddEgress(fmt.Sprintf("E%d", i+1), sw, fmt.Sprintf("isp-%d", i+1))
		if err != nil {
			panic(err)
		}
		eps = append(eps, ep)
	}
	return eps
}

// SpreadPoPs returns k PoP indices chosen by farthest-point sampling, so
// the selection covers the plane.
func (t *Topology) SpreadPoPs(k int) []int {
	if k > len(t.PoPs) {
		k = len(t.PoPs)
	}
	if k == 0 {
		return nil
	}
	chosen := []int{0}
	for len(chosen) < k {
		bestPoP, bestD := -1, -1.0
		for i := range t.PoPs {
			already := false
			for _, c := range chosen {
				if c == i {
					already = true
					break
				}
			}
			if already {
				continue
			}
			// distance to nearest chosen
			d := math.Inf(1)
			for _, c := range chosen {
				if dd := t.PoPs[i].Center.Dist(t.PoPs[c].Center); dd < d {
					d = dd
				}
			}
			if d > bestD {
				bestD = d
				bestPoP = i
			}
		}
		chosen = append(chosen, bestPoP)
	}
	return chosen
}
