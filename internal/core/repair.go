package core

import (
	"sort"

	"repro/internal/dataplane"
	"repro/internal/routing"
	"repro/internal/southbound"
)

// Switch and link failure recovery (§6): "the controller finds affected
// local paths and implements alternative shortest paths with the same
// performance. ... If the failure affects the exposed G-switch and virtual
// fabric in a way that cannot be masked from the ancestor controllers,
// changes are reflected bottom up which may cause upper-level controllers
// to recompute new paths."

// RepairPaths re-routes every active path of this controller that
// traverses the given (now unusable) port. It returns the repaired and
// failed path IDs. Paths with no alternative stay broken: their record
// deactivates — the one inactive record the path table holds — and waits
// for the bearer's release, mirroring the escalation to ancestors in the
// paper.
func (c *Controller) RepairPaths(ref dataplane.PortRef) (repaired, failed []PathID) {
	type job struct {
		id   PathID
		path *routing.Path
	}
	var jobs []job
	c.mu.Lock()
	for id, rec := range c.paths {
		if !rec.Active || rec.lastPath == nil {
			continue
		}
		if pathUses(rec.lastPath, ref) {
			jobs = append(jobs, job{id: id, path: rec.lastPath})
		}
	}
	c.mu.Unlock()
	// Repair in path-id order, not map order: rule installs and removals
	// reach the seed-replayed data plane.
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })

	// The NIB mutation for the failure advanced the generation, so this is
	// a fresh (cache-missed) view that excludes the failed link.
	g := c.Graph()
	for _, j := range jobs {
		src := j.path.Points[0]
		dst := j.path.Points[len(j.path.Points)-1]
		alt, err := g.ShortestPath(src, dst, routing.MinHops, routing.Constraints{})
		if err != nil {
			c.mu.Lock()
			rec, ok := c.paths[j.id]
			var owner string
			var devs []Device
			if ok {
				rec.Active = false
				owner = rec.Owner
				// The devices any version of the path was installed on,
				// as TeardownPath deletes on.
				devs = c.attachedLocked(rec.Devices)
			}
			c.mu.Unlock()
			if ok {
				// drop the dead rules so traffic punts instead of blackholing;
				// removals are idempotent filters and the path is already
				// marked failed, so a partial cleanup cannot make it worse
				//softmow:allow errdiscard best-effort cleanup of an already-failed path
				_ = c.removeOwned(devs, southbound.FlowDeleteOwner, owner, 0)
			}
			failed = append(failed, j.id)
			continue
		}
		if err := c.ReroutePath(j.id, alt); err != nil {
			failed = append(failed, j.id)
			continue
		}
		repaired = append(repaired, j.id)
	}
	return repaired, failed
}

// pathUses reports whether a path's point sequence touches the port.
func pathUses(p *routing.Path, ref dataplane.PortRef) bool {
	for _, pt := range p.Points {
		if pt == ref {
			return true
		}
	}
	return false
}

// HandleLinkFailure combines the NIB update with local path repair — the
// full §6 reaction to a Port-Status down event. It returns the repair
// outcome for observability.
func (c *Controller) HandleLinkFailure(dev dataplane.DeviceID, port dataplane.PortID) (repaired, failed []PathID) {
	ref := dataplane.PortRef{Dev: dev, Port: port}
	// Collect every far end first (a port can anchor several link records
	// after reconfigurations), so paths entering on any other side are
	// repaired too.
	var fars []dataplane.PortRef
	for _, l := range c.NIB.LinksOf(dev) {
		if l.A == ref {
			fars = append(fars, l.B)
		} else if l.B == ref {
			fars = append(fars, l.A)
		}
	}
	c.HandlePortStatus(dev, port, false)
	repaired, failed = c.RepairPaths(ref)
	for _, far := range fars {
		r2, f2 := c.RepairPaths(far)
		repaired = append(repaired, r2...)
		failed = append(failed, f2...)
	}
	return repaired, failed
}
