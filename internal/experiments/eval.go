// Package experiments contains one driver per table and figure of the
// SoftMoW evaluation (§7), plus the ablation for the §4.3 label-swapping
// design choice. Each driver is pure Go (no I/O) and returns a typed result
// that cmd/experiments renders and the repository benchmarks regenerate.
//
// Scale is parameterized: Full() reproduces the paper's setup (321
// switches, 1000+ base stations, 11590 prefixes, 1M subscribers); Small()
// keeps unit tests and benchmarks fast while preserving every structural
// property.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/ltetrace"
	"repro/internal/reca"
	"repro/internal/topo"
)

// Params scales one evaluation composition.
type Params struct {
	Seed     int64
	Switches int
	Regions  int
	BS       int
	Prefixes int
	Egress   int
	// UEs is the modeled subscriber count.
	UEs int
}

// Full returns the paper-scale parameters (§7.1–7.2).
func Full() Params {
	return Params{Seed: 42, Switches: 321, Regions: 4, BS: 1000, Prefixes: 11590, Egress: 8, UEs: 1_000_000}
}

// Small returns test/benchmark-scale parameters.
func Small() Params {
	return Params{Seed: 42, Switches: 64, Regions: 4, BS: 60, Prefixes: 150, Egress: 4, UEs: 10_000}
}

func (p *Params) defaults() {
	if p.Switches == 0 {
		p.Switches = 321
	}
	if p.Regions == 0 {
		p.Regions = 4
	}
	if p.BS == 0 {
		p.BS = 1000
	}
	if p.Prefixes == 0 {
		p.Prefixes = 11590
	}
	if p.Egress == 0 {
		p.Egress = 4
	}
	if p.UEs == 0 {
		p.UEs = 1_000_000
	}
}

// Eval is one fully composed evaluation scenario: topology, regions, radio
// workload, interdomain table, and a bootstrapped 2-level hierarchy.
type Eval struct {
	Params  Params
	Topo    *topo.Topology
	Regions []topo.Region
	Model   *ltetrace.Model
	Table   *interdomain.Table
	H       *core.Hierarchy
	// GroupRegion maps each BS group to its region index.
	GroupRegion map[dataplane.DeviceID]int
	// GroupAttach maps each BS group to its radio port.
	GroupAttach map[dataplane.DeviceID]dataplane.PortRef
	// BorderGroups marks groups with handovers into another region.
	BorderGroups map[dataplane.DeviceID]bool
}

// BuildEval composes the full scenario and bootstraps the hierarchy.
func BuildEval(p Params) (*Eval, error) {
	p.defaults()
	t := topo.Generate(topo.Params{Seed: p.Seed, NumSwitches: p.Switches})
	regions := topo.Partition(t, p.Regions)
	eps := t.PlaceEgressPoints(p.Egress)

	model := ltetrace.New(ltetrace.Params{
		Seed: p.Seed, NumBS: p.BS, NumUEs: p.UEs, PlaneSize: t.Params.PlaneSize,
	})

	ev := &Eval{
		Params: p, Topo: t, Regions: regions, Model: model,
		GroupRegion:  make(map[dataplane.DeviceID]int),
		GroupAttach:  make(map[dataplane.DeviceID]dataplane.PortRef),
		BorderGroups: make(map[dataplane.DeviceID]bool),
	}

	// Partition BS groups into approximately equal-load regions that
	// preserve geographic neighborhoods (§7.1: "inferred BS groups are
	// partitioned to form approximately equal-sized logical regions with
	// similar cellular loads"), then attach each group's access side to
	// the nearest core switch of its region.
	regionOf := topo.RegionOf(regions)
	groupRegion := assignGroupsBalanced(t, regions, model)
	for _, g := range model.Groups {
		ri := groupRegion[g.ID]
		access := nearestSwitchIn(t, regions[ri], g.Centroid(model.Locs))
		port, err := t.Net.AddRadioPort(access, g.ID)
		if err != nil {
			return nil, err
		}
		g.AccessSwitch = access
		ev.GroupRegion[g.ID] = ri
		ev.GroupAttach[g.ID] = dataplane.PortRef{Dev: access, Port: port.ID}
	}

	// Border groups: handovers to a group in another region (a busy-window
	// group-level graph stands in for the §5.2 adjacency knowledge).
	gg := model.HandoverGraphGroups(12*60, 15*60)
	for _, e := range gg.Edges() {
		ra, oka := ev.GroupRegion[e.Key.A]
		rb, okb := ev.GroupRegion[e.Key.B]
		if oka && okb && ra != rb {
			ev.BorderGroups[e.Key.A] = true
			ev.BorderGroups[e.Key.B] = true
		}
	}

	// Middleboxes: a firewall and a rate limiter per region at the region
	// seed switch, exercising G-middlebox aggregation.
	for i, r := range regions {
		if len(r.Switches) == 0 {
			continue
		}
		sw := r.Switches[0]
		for j, mt := range []dataplane.MiddleboxType{dataplane.MBFirewall, dataplane.MBRateLimiter} {
			mb := &dataplane.Middlebox{
				ID:       dataplane.DeviceID(fmt.Sprintf("MB-%d-%d", i, j)),
				Type:     mt,
				Attach:   dataplane.PortRef{Dev: sw},
				Capacity: 1000, Load: 100,
			}
			if err := t.Net.AttachMiddlebox(mb); err != nil {
				return nil, err
			}
		}
	}

	// Leaf specs per region.
	specs := make([]core.LeafSpec, len(regions))
	for i, r := range regions {
		specs[i] = core.LeafSpec{
			ID:       "L" + r.ID,
			Switches: r.Switches,
			BSGroup:  make(map[dataplane.DeviceID]dataplane.DeviceID),
		}
	}
	for _, g := range model.Groups {
		ri := ev.GroupRegion[g.ID]
		specs[ri].Radios = append(specs[ri].Radios, reca.RadioAttachment{
			ID:           g.ID,
			Attach:       ev.GroupAttach[g.ID],
			Border:       ev.BorderGroups[g.ID],
			Centroid:     g.Centroid(model.Locs),
			Constituents: []dataplane.DeviceID{g.ID},
		})
		for _, bs := range g.Members() {
			specs[ri].BSGroup[bs] = g.ID
		}
	}
	for _, mb := range t.Net.Middleboxes() {
		ri := regionOf[mb.Attach.Dev]
		specs[ri].Middleboxes = append(specs[ri].Middleboxes, reca.MiddleboxAttachment{
			ID: mb.ID, Type: mb.Type, Attach: mb.Attach,
			Capacity: mb.Capacity, Load: mb.Load,
		})
	}

	h, err := core.NewTwoLevel(t.Net, "root", specs)
	if err != nil {
		return nil, err
	}
	ev.H = h

	sites := make([]interdomain.EgressSite, 0, len(eps))
	for _, ep := range eps {
		sites = append(sites, interdomain.EgressSite{ID: ep.ID, Loc: t.Locations[ep.Switch]})
	}
	ev.Table = interdomain.Generate(interdomain.GenParams{
		Seed: p.Seed, NumPrefixes: p.Prefixes, Egresses: sites,
		Snapshots: 3, PlaneSize: t.Params.PlaneSize,
	})
	h.DistributeInterdomain(ev.Table, 0)
	return ev, nil
}

// assignGroupsBalanced distributes BS groups over regions: geographically
// (nearest region by its closest switch) subject to a tight equal-load
// cap, matching the paper's balanced-region setup ("approximately
// equal-sized logical regions with similar cellular loads", §7.1). The
// binding cap pushes boundary groups off their geographic home — the
// inefficiency the §5.3 region optimization later removes.
func assignGroupsBalanced(t *topo.Topology, regions []topo.Region, model *ltetrace.Model) map[dataplane.DeviceID]int {
	k := len(regions)
	regionDist := func(centroid dataplane.GeoPoint, r topo.Region) float64 {
		best := t.Locations[r.Switches[0]].Dist(centroid)
		for _, sw := range r.Switches[1:] {
			if d := t.Locations[sw].Dist(centroid); d < best {
				best = d
			}
		}
		return best
	}
	total := 0
	for _, g := range model.Groups {
		total += g.Size()
	}
	cap := float64(total)/float64(k)*1.45 + float64(dataplane.MaxGroupSize)
	load := make([]float64, k)
	out := make(map[dataplane.DeviceID]int, len(model.Groups))
	for _, g := range model.Groups {
		centroid := g.Centroid(model.Locs)
		best, bestD := -1, 0.0
		for i := range regions {
			if load[i]+float64(g.Size()) > cap || len(regions[i].Switches) == 0 {
				continue
			}
			d := regionDist(centroid, regions[i])
			if best == -1 || d < bestD {
				best, bestD = i, d
			}
		}
		if best == -1 { // every region at cap: least loaded
			best = 0
			for i := 1; i < k; i++ {
				if load[i] < load[best] {
					best = i
				}
			}
		}
		out[g.ID] = best
		load[best] += float64(g.Size())
	}
	return out
}

// nearestSwitchIn returns the region switch closest to loc.
func nearestSwitchIn(t *topo.Topology, r topo.Region, loc dataplane.GeoPoint) dataplane.DeviceID {
	best := r.Switches[0]
	bestD := t.Locations[best].Dist(loc)
	for _, sw := range r.Switches[1:] {
		if d := t.Locations[sw].Dist(loc); d < bestD {
			best, bestD = sw, d
		}
	}
	return best
}

// RegionName returns the leaf controller ID for a region index.
func (ev *Eval) RegionName(i int) string {
	return "L" + ev.Regions[i].ID
}

// BSRegion builds the BS → region-index assignment used by the load
// drivers.
func (ev *Eval) BSRegion() map[dataplane.DeviceID]int {
	out := make(map[dataplane.DeviceID]int, len(ev.Model.BSIDs))
	for _, bs := range ev.Model.BSIDs {
		if g, ok := ev.Model.GroupOf[bs]; ok {
			if r, ok := ev.GroupRegion[g]; ok {
				out[bs] = r
			}
		}
	}
	return out
}
