package core

import (
	"fmt"

	"repro/internal/dataplane"
)

// Invariant probes: read-only views exported for the fault-injection
// harness (internal/chaos) so it can check global properties — every
// installed rule's owner maps to a live path, NIB links mirror device port
// state — without reaching into controller internals.

// PathOwnerInfo summarizes one path record for ownership accounting.
type PathOwnerInfo struct {
	ID      PathID
	Version int
	Active  bool
}

// PathOwners returns the owner tag of every live path record, with the
// path's current version and activity; a released path is not listed.
// Rules found in the data plane whose owner is missing from the union of
// all controllers' maps — or which belong to an inactive (failed-repair)
// path, or carry a version other than the record's current one after a
// committed update — are orphans.
func (c *Controller) PathOwners() map[string]PathOwnerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]PathOwnerInfo, len(c.paths))
	for id, rec := range c.paths {
		out[rec.Owner] = PathOwnerInfo{ID: id, Version: rec.Version, Active: rec.Active}
	}
	return out
}

// CheckNoOrphanRules walks every switch of net and asserts each installed
// rule is owned by a path record one of ctrls still considers active, at
// the record's current version. PathOwners lists live records only, so a
// rule surviving its path's release shows up as "unknown to every
// controller". A violation means a rollback, repair, or teardown leaked
// state into the data plane — or a delete missed a device it had to reach.
func CheckNoOrphanRules(net *dataplane.Network, ctrls []*Controller) error {
	owners := make(map[string]PathOwnerInfo)
	for _, c := range ctrls {
		for owner, info := range c.PathOwners() {
			owners[owner] = info
		}
	}
	for _, sw := range net.Switches() {
		for _, r := range sw.Table.Rules() {
			info, ok := owners[r.Owner]
			if !ok {
				return fmt.Errorf("orphan rule on %s: owner %q unknown to every controller (%+v)", sw.ID, r.Owner, r)
			}
			if !info.Active {
				return fmt.Errorf("orphan rule on %s: owner %q is deactivated (%+v)", sw.ID, r.Owner, r)
			}
			if r.Version != info.Version {
				return fmt.Errorf("stale rule on %s: owner %q version %d, path record at %d (%+v)",
					sw.ID, r.Owner, r.Version, info.Version, r)
			}
		}
	}
	return nil
}

// PathTableSize reports how many records the path table holds: the live
// paths plus any failed repair still awaiting its bearer's release. It
// returns to the live bearer count once churn stops.
func (c *Controller) PathTableSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.paths)
}

// ExposedPortFor maps an underlying (device, port) in this controller's
// region to the G-switch port it is exposed through, if it is a border
// port. The harness uses it to translate physical link endpoints into the
// parent's logical coordinates.
func (c *Controller) ExposedPortFor(ref dataplane.PortRef) (dataplane.PortID, bool) {
	return c.exposedPortFor(ref)
}
