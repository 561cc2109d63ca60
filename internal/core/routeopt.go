package core

import (
	"sort"
	"time"

	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/routing"
)

// The routing optimization application (§3.3 lists it beside region
// optimization among the operator applications): periodically re-examine
// installed paths against the current topology and interdomain state —
// link failures repaired elsewhere, bandwidth drift, new interdomain
// snapshots — and migrate flows onto better routes with consistent
// (make-before-break) updates.

// RouteOptReport summarizes one optimization pass.
type RouteOptReport struct {
	Examined  int
	Rerouted  int
	HopsSaved int
	RTTSaved  time.Duration
	Failed    int
}

// OptimizeRoutes re-routes every active path whose destination prefix now
// has a route at least minHopGain hops better (end-to-end, internal +
// external) than the installed one. Paths without a resolvable prefix or
// without improvement are left untouched.
func (c *Controller) OptimizeRoutes(minHopGain int) RouteOptReport {
	if minHopGain < 1 {
		minHopGain = 1
	}
	var report RouteOptReport

	type job struct {
		id     PathID
		src    dataplane.PortRef
		dst    dataplane.PortRef
		prefix interdomain.PrefixID
		demand float64
	}
	var jobs []job
	c.mu.Lock()
	for id, rec := range c.paths {
		if !rec.Active || rec.lastPath == nil || rec.Match.DstPrefix == "" {
			continue
		}
		jobs = append(jobs, job{
			id:     id,
			src:    rec.lastPath.Points[0],
			dst:    rec.lastPath.Points[len(rec.lastPath.Points)-1],
			prefix: interdomain.PrefixID(rec.Match.DstPrefix),
			demand: rec.demand,
		})
	}
	c.mu.Unlock()
	// Examine in path-id order, not map order: reroutes mutate switch rule
	// tables, and concurrent paths can contend for bandwidth, so the
	// winner must be deterministic under seed replay.
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })

	g := c.Graph()
	for _, j := range jobs {
		report.Examined++
		constraints := routing.Constraints{MinBandwidth: j.demand}

		// Current total: the installed route re-priced on today's graph
		// and interdomain state.
		curInternal, err := g.ShortestPath(j.src, j.dst, routing.MinHops, constraints)
		curTotal := int(1) << 30
		var curRTT time.Duration
		if err == nil {
			if ext, ok := c.externalFor(j.prefix, j.dst); ok {
				curTotal = curInternal.Cost.Hops + ext.Hops
				curRTT = 2*curInternal.Cost.Latency + ext.RTT
			}
		}

		// Best current route, including egress choice.
		best, err := c.Route(RouteRequest{From: j.src, Prefix: j.prefix, Constraints: constraints})
		if err != nil {
			continue
		}
		if best.TotalHops+minHopGain > curTotal {
			continue // not enough gain
		}
		if err := c.ReroutePath(j.id, best.Path); err != nil {
			report.Failed++
			continue
		}
		report.Rerouted++
		report.HopsSaved += curTotal - best.TotalHops
		if curRTT > best.TotalRTT {
			report.RTTSaved += curRTT - best.TotalRTT
		}
	}
	return report
}

// externalFor returns the external metrics of the route option exiting at
// the given egress port, if any.
func (c *Controller) externalFor(prefix interdomain.PrefixID, egress dataplane.PortRef) (interdomain.Metrics, bool) {
	for _, opt := range c.RouteOptions(prefix) {
		if opt.Ref == egress {
			return opt.External, true
		}
	}
	return interdomain.Metrics{}, false
}
