package core

import (
	"repro/internal/dataplane"
	"repro/internal/reca"
	"repro/internal/southbound"
)

// ComputeAbstraction runs RecA's topology abstraction (§4.1.3): the
// controller collapses its discovered topology into one G-switch with a
// virtual fabric, G-BSes (border ones one-to-one), and per-type
// G-middleboxes, ready to expose to the parent.
func (c *Controller) ComputeAbstraction() *reca.Abstraction {
	c.mu.Lock()
	cfg := c.cfg
	c.mu.Unlock()
	// Reuse the controller's cached routing graph for the fabric fill; it
	// is revalidated against the NIB generation, so it always reflects the
	// NIB contents the abstraction is computed from.
	ab := reca.ComputeWithGraph(c.ID, c.NIB, cfg, c.Graph())
	c.mu.Lock()
	c.abstraction = &ab
	c.stats.Reabstractions++
	c.mu.Unlock()
	return &ab
}

// Abstraction returns the last computed abstraction, or nil.
func (c *Controller) Abstraction() *reca.Abstraction {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.abstraction
}

// RecAFeatures builds the feature reply the controller's RecA agent
// answers to its parent's feature request — the G-switch with its virtual
// fabric and attached logical devices (§3.3).
func (c *Controller) RecAFeatures() southbound.FeatureReply {
	ab := c.Abstraction()
	if ab == nil {
		ab = c.ComputeAbstraction()
	}
	fr := southbound.FeatureReply{
		Device: ab.GSwitch.ID,
		Kind:   dataplane.KindGSwitch,
		Fabric: ab.GSwitch.Fabric,
	}
	for _, gp := range ab.GSwitch.Ports {
		fr.Ports = append(fr.Ports, southbound.PortInfo{
			ID: gp.ID, Up: true, External: gp.External,
			ExternalDomain: gp.ExternalDomain, Radio: gp.GBS,
			Underlying: gp.Underlying,
		})
	}
	fr.GBSes = append(fr.GBSes, ab.GBSes...)
	fr.GMiddleboxes = append(fr.GMiddleboxes, ab.GMiddleboxes...)
	return fr
}

// RefreshFabric implements the §3.2 bandwidth-update protocol: "if the
// available bandwidth exposed for a port pair in the child controller's
// data plane changes more than a predetermined threshold, the child
// controller will recompute new bandwidths, update the vFabric and notify
// the parent." The controller re-measures its links (one discovery round),
// recomputes the fabric, and — only when the drift exceeds thresholdMbps —
// pushes the updated G-switch record to the parent's NIB. Reports whether
// a notification was sent.
//
//softmow:allow testonly ROADMAP item 1: event-driven repair triggers it after a leaf repair
func (c *Controller) RefreshFabric(thresholdMbps float64) bool {
	c.RunDiscovery() // refresh link records (available bandwidth rides the meta field)
	c.mu.Lock()
	cfg := c.cfg
	old := c.abstraction
	c.mu.Unlock()
	ab := reca.ComputeWithGraph(c.ID, c.NIB, cfg, c.Graph())
	var oldFabric *dataplane.VFabric
	if old != nil {
		oldFabric = old.GSwitch.Fabric
	}
	changed := ab.GSwitch.Fabric.DiffExceeds(oldFabric, thresholdMbps)
	if !changed {
		return false
	}
	c.mu.Lock()
	c.abstraction = &ab
	c.mu.Unlock()
	pl := c.ParentLinkRef()
	if pl == nil {
		return true
	}
	// Update the parent's device record in place — ports are unchanged, so
	// links survive and no rediscovery is needed.
	_ = pl.FabricUpdated(ab.GSwitch.Fabric) //softmow:allow errdiscard §3.2 update is advisory; a failed remote push retries on the next threshold crossing
	return true
}

// Reabstract recomputes this controller's abstraction and refreshes the
// parent's view, recursively updating ancestors ("the logical regions are
// updated from bottom to top in a recursive fashion", §5.3.2). The parent
// also re-runs discovery to find inter-G-switch links whose endpoints
// changed.
func (c *Controller) Reabstract() {
	c.ComputeAbstraction()
	pl := c.ParentLinkRef()
	if pl == nil {
		return
	}
	_ = pl.ChildRefreshed() //softmow:allow errdiscard a failed remote refresh surfaces on the conn; the next reabstraction re-pushes the full view
}
