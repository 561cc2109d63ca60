// Package interdomain models external (beyond the cellular WAN) path
// quality: per-(egress point, destination prefix) hop counts and RTTs.
//
// The paper drives Fig. 8/9 from the iPlane dataset — traceroutes from
// PlanetLab nodes to Internet destinations, replayed over multiple
// snapshots to capture routing changes (§7.2). We substitute a synthetic
// generator with the same essential structure: each destination prefix has
// a (virtual) location, so egress points closer to the prefix see fewer
// external hops and lower RTT, and successive snapshots jitter the metrics
// the way interdomain routing changes do.
package interdomain

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataplane"
	"repro/internal/simnet"
)

// PrefixID identifies one Internet destination prefix.
type PrefixID string

// Metrics is the externally measured path quality from one egress point to
// one prefix (§4.2: "the network performance of each selected route is
// measured (e.g., hops, latency)").
type Metrics struct {
	Hops int
	RTT  time.Duration
}

// Route is one selected interdomain route: the RCP-style selection result a
// leaf controller advertises up the hierarchy (§4.2).
type Route struct {
	Prefix PrefixID
	// Egress names the egress point the route exits through.
	Egress string
	// EgressSwitch is the data-plane switch hosting the egress.
	EgressSwitch dataplane.DeviceID
	Metrics      Metrics
}

// GenParams configures table generation.
type GenParams struct {
	Seed        int64
	NumPrefixes int
	// Egresses lists the egress points with their geographic locations
	// (used for spatial correlation).
	Egresses []EgressSite
	// Snapshots is the number of routing snapshots (≥ 1).
	Snapshots int
	// PlaneSize matches the topology plane; prefixes are placed on a
	// surrounding ring to model destinations outside the WAN.
	PlaneSize float64
	// BaseHops is the minimum external hop count (paper example: egress
	// points "10 hops away from the address prefix").
	BaseHops int
}

func (p *GenParams) defaults() {
	if p.NumPrefixes == 0 {
		p.NumPrefixes = 11590 // Fig. 8 destination count
	}
	if p.Snapshots == 0 {
		p.Snapshots = 3
	}
	if p.PlaneSize == 0 {
		p.PlaneSize = 1000
	}
	if p.BaseHops == 0 {
		p.BaseHops = 8
	}
}

// EgressSite is an egress point and its location.
type EgressSite struct {
	ID  string
	Loc dataplane.GeoPoint
}

// Table holds per-snapshot external metrics for every (egress, prefix)
// pair.
type Table struct {
	prefixes []PrefixID
	egresses []string
	// metrics[snapshot][egressIdx][prefixIdx]
	metrics [][][]Metrics
	eIdx    map[string]int
	pIdx    map[PrefixID]int
}

// Generate builds a deterministic table.
func Generate(p GenParams) *Table {
	p.defaults()
	rng := simnet.RNG(p.Seed, "interdomain")
	t := &Table{
		eIdx: make(map[string]int, len(p.Egresses)),
		pIdx: make(map[PrefixID]int, p.NumPrefixes),
	}
	for i, e := range p.Egresses {
		t.egresses = append(t.egresses, e.ID)
		t.eIdx[e.ID] = i
	}

	// Each prefix has an anchor: the peering location through which it is
	// best reached. 70% anchor inside the metro plane (CDNs, regional
	// ISPs — egress choice matters a lot, the PAM'14 path-inflation
	// effect); 30% sit on a far ring (remote destinations, roughly
	// egress-insensitive).
	type ploc struct {
		id  PrefixID
		loc dataplane.GeoPoint
	}
	plocs := make([]ploc, p.NumPrefixes)
	center := dataplane.GeoPoint{X: p.PlaneSize / 2, Y: p.PlaneSize / 2}
	for i := 0; i < p.NumPrefixes; i++ {
		id := PrefixID(fmt.Sprintf("pfx%05d", i))
		var loc dataplane.GeoPoint
		if rng.Float64() < 0.7 {
			loc = dataplane.GeoPoint{X: rng.Float64() * p.PlaneSize, Y: rng.Float64() * p.PlaneSize}
		} else {
			angle := rng.Float64() * 2 * 3.141592653589793
			radius := p.PlaneSize * (1 + 2*rng.Float64())
			loc = dataplane.GeoPoint{
				X: center.X + radius*cos(angle),
				Y: center.Y + radius*sin(angle),
			}
		}
		plocs[i] = ploc{id, loc}
		t.prefixes = append(t.prefixes, id)
		t.pIdx[id] = i
	}

	// Per-snapshot metrics: hops grow with distance; RTT correlates with
	// hops; snapshots add jitter representing interdomain route changes.
	// The distance sensitivity reproduces the PAM'14 observation the paper
	// builds on: distant egress points inflate external paths badly.
	hopsPerUnit := 30.0 / (3 * p.PlaneSize) // strong vantage-point affinity
	t.metrics = make([][][]Metrics, p.Snapshots)
	for s := 0; s < p.Snapshots; s++ {
		t.metrics[s] = make([][]Metrics, len(p.Egresses))
		for e, site := range p.Egresses {
			row := make([]Metrics, p.NumPrefixes)
			for i, pl := range plocs {
				// Long-haul transit beyond the metro is efficient: the
				// egress-sensitive part of the path is the local detour,
				// so the distance term saturates at ~1.2 plane sizes.
				d := site.Loc.Dist(pl.loc)
				if max := 1.2 * p.PlaneSize; d > max {
					d = max
				}
				hops := p.BaseHops + int(d*hopsPerUnit) + rng.Intn(3)
				if s > 0 {
					hops += rng.Intn(3) - 1 // snapshot jitter, may improve
					if hops < 1 {
						hops = 1
					}
				}
				// ~2 ms per external hop plus distance propagation.
				rtt := time.Duration(hops)*2*time.Millisecond +
					time.Duration(d*25)*time.Microsecond
				row[i] = Metrics{Hops: hops, RTT: rtt}
			}
			t.metrics[s][e] = row
		}
	}
	return t
}

func cos(x float64) float64 { return math.Cos(x) }
func sin(x float64) float64 { return math.Sin(x) }

// Prefixes returns all prefix IDs.
func (t *Table) Prefixes() []PrefixID { return t.prefixes }

// Snapshots reports the number of routing snapshots.
func (t *Table) Snapshots() int { return len(t.metrics) }

// Lookup returns the metrics for (egress, prefix) in a snapshot.
func (t *Table) Lookup(snapshot int, egress string, prefix PrefixID) (Metrics, bool) {
	if snapshot < 0 || snapshot >= len(t.metrics) {
		return Metrics{}, false
	}
	e, ok := t.eIdx[egress]
	if !ok {
		return Metrics{}, false
	}
	p, ok := t.pIdx[prefix]
	if !ok {
		return Metrics{}, false
	}
	return t.metrics[snapshot][e][p], true
}

// SelectRoutes performs the RCP-style route selection a leaf controller
// runs on behalf of one gateway switch (§4.2): for every prefix, the
// egress's measured route in the given snapshot. egressSwitch annotates the
// resulting routes.
func (t *Table) SelectRoutes(snapshot int, egress string, egressSwitch dataplane.DeviceID) []Route {
	e, ok := t.eIdx[egress]
	if !ok || snapshot < 0 || snapshot >= len(t.metrics) {
		return nil
	}
	routes := make([]Route, len(t.prefixes))
	for i, pfx := range t.prefixes {
		routes[i] = Route{
			Prefix: pfx, Egress: egress, EgressSwitch: egressSwitch,
			Metrics: t.metrics[snapshot][e][i],
		}
	}
	return routes
}
