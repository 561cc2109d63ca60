package chaos

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/nib"
)

// CheckInvariants verifies the harness's global safety properties against
// the live hierarchy and data plane. Reachability (invariant 3) is
// enforced separately by probeAndRedo, which needs the repair machinery.
func (h *Harness) CheckInvariants() error {
	if err := h.checkNoOrphanRules(); err != nil {
		return err
	}
	if err := h.checkLinkConsistency(); err != nil {
		return err
	}
	if err := h.checkUEConsistency(); err != nil {
		return err
	}
	if err := h.checkMastership(); err != nil {
		return err
	}
	return h.checkReplicaConvergence()
}

// checkUEConsistency asserts every controller's UE table is coherent with
// the path store and the radio index: an active row's owning controller
// still holds its path record as active (the path table keeps live records
// only, so a released path reads as unknown, never as deactivated; an
// inactive record is a failed repair), a row's serving group (when the
// UE has not roamed away) is the group its BS actually camps on and that
// group has a radio attachment. A violation means a concurrent mobility
// operation tore a row and its path apart.
func (h *Harness) checkUEConsistency() error {
	for _, c := range h.cl.Hier.All {
		for _, rec := range c.UERecords() {
			if rec.Active {
				if rec.HandledBy == nil {
					return fmt.Errorf("%s: active UE %s has no owning controller", c.ID, rec.UE)
				}
				p, ok := rec.HandledBy.Path(rec.PathID)
				if !ok {
					return fmt.Errorf("%s: active UE %s points at unknown path %d on %s",
						c.ID, rec.UE, rec.PathID, rec.HandledBy.OwnerID())
				}
				if !p.Active {
					return fmt.Errorf("%s: active UE %s points at deactivated path %d on %s",
						c.ID, rec.UE, rec.PathID, rec.HandledBy.OwnerID())
				}
			}
			if rec.Group != "" {
				g, ok := c.GroupOfBS(rec.BS)
				if !ok {
					return fmt.Errorf("%s: UE %s camps on %s, unknown to the radio index", c.ID, rec.UE, rec.BS)
				}
				if g != rec.Group {
					return fmt.Errorf("%s: UE %s row says group %s, radio index says %s",
						c.ID, rec.UE, rec.Group, g)
				}
				if _, ok := c.AttachOfGroup(rec.Group); !ok {
					return fmt.Errorf("%s: UE %s group %s has no radio attachment", c.ID, rec.UE, rec.Group)
				}
			}
		}
	}
	return nil
}

// checkNoOrphanRules asserts every rule installed on a physical switch is
// owned by a live path record at its current version
// (core.CheckNoOrphanRules).
func (h *Harness) checkNoOrphanRules() error {
	return core.CheckNoOrphanRules(h.cl.Net, h.cl.Hier.All)
}

// checkLinkConsistency asserts the NIB view matches the physical link
// state at both levels: every intra-region link is recorded (with the
// right Up flag) in the owning leaf's NIB, every cross-region link in the
// root's NIB between the exposed G-switch border ports, and no NIB record
// contradicts the data plane.
func (h *Harness) checkLinkConsistency() error {
	for _, l := range h.cl.Net.Links() {
		la, lb := h.cl.Hier.LeafOf(l.A.Dev), h.cl.Hier.LeafOf(l.B.Dev)
		switch {
		case la == nil || lb == nil:
			return fmt.Errorf("link %s touches a switch no leaf owns", linkName(l))
		case la == lb:
			rec, ok := la.NIB.LinkByKey(nib.NewLinkKey(l.A, l.B))
			if !ok {
				return fmt.Errorf("leaf %s NIB lost link %s", la.ID, linkName(l))
			}
			if rec.Up != l.Up() {
				return fmt.Errorf("leaf %s NIB link %s up=%t, physical up=%t",
					la.ID, linkName(l), rec.Up, l.Up())
			}
		default:
			gpa, oka := la.ExposedPortFor(l.A)
			gpb, okb := lb.ExposedPortFor(l.B)
			if !oka || !okb {
				return fmt.Errorf("cross link %s not exposed as border ports (%t,%t)", linkName(l), oka, okb)
			}
			key := nib.NewLinkKey(
				dataplane.PortRef{Dev: la.GSwitchID(), Port: gpa},
				dataplane.PortRef{Dev: lb.GSwitchID(), Port: gpb})
			rec, ok := h.cl.Hier.Root.NIB.LinkByKey(key)
			if !ok {
				return fmt.Errorf("root NIB lost cross link %s (g-ports %s:%d-%s:%d)",
					linkName(l), la.GSwitchID(), gpa, lb.GSwitchID(), gpb)
			}
			if rec.Up != l.Up() {
				return fmt.Errorf("root NIB cross link %s up=%t, physical up=%t",
					linkName(l), rec.Up, l.Up())
			}
		}
	}
	// The reverse direction: every leaf NIB record must describe a real,
	// state-matching physical link (leaf NIBs hold only intra-region links).
	for _, leaf := range h.cl.Hier.Leaves {
		for _, rec := range leaf.NIB.Links() {
			l := h.cl.Net.LinkAt(rec.A)
			if l == nil {
				return fmt.Errorf("leaf %s NIB has phantom link %s:%d-%s:%d",
					leaf.ID, rec.A.Dev, rec.A.Port, rec.B.Dev, rec.B.Port)
			}
			if l.Up() != rec.Up {
				return fmt.Errorf("leaf %s NIB record %s:%d-%s:%d up=%t, physical up=%t",
					leaf.ID, rec.A.Dev, rec.A.Port, rec.B.Dev, rec.B.Port, rec.Up, l.Up())
			}
		}
	}
	return nil
}

// checkMastership asserts every controller's HA pair has exactly one
// master — no split-brain, no headless controller.
func (h *Harness) checkMastership() error {
	for _, id := range h.pairIDs {
		if n := h.pairs[id].MasterCount(); n != 1 {
			return fmt.Errorf("pair %s has %d masters", id, n)
		}
	}
	return nil
}

// checkReplicaConvergence rebuilds every pair's replica from its shared
// store — committed checkpoint plus delta replay when one exists, genesis
// replay otherwise — and asserts byte equality with the live replica. The
// snapshot/truncation pipeline must never lose or duplicate a committed
// effect, no matter where the last checkpoint landed.
func (h *Harness) checkReplicaConvergence() error {
	for _, id := range h.pairIDs {
		store := h.pairs[id].Store
		live := store.StateMachineSnapshot()
		if live == nil {
			continue
		}
		fresh := newBearerReplica()
		st := store.Rebuild(fresh)
		if got := fresh.Snapshot(); !bytes.Equal(got, live) {
			return fmt.Errorf("pair %s replica divergence after rebuild (fromSnapshot=%t replayed=%d): rebuilt %d bytes, live %d bytes",
				id, st.FromSnapshot, st.Replayed, len(got), len(live))
		}
	}
	return nil
}
