package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/routing"
)

// The mobility application (§5) implements UE bearer management and
// handovers on top of the NOS northbound API. It maintains the two §5.1
// tables: the UE table (bearer request → local path ID) and the path table
// (held by the controller's path records). UE state lives in the sharded
// store (ueshard.go): public entry points acquire the per-UE operation
// lock and delegate to *Locked helpers, so concurrent operations on one UE
// serialize while different UEs proceed in parallel.

// BearerRequest is the §5.1 "(UE ID, BS ID, SRC IP, DST IP, REQ)" tuple.
type BearerRequest struct {
	UE     string
	BS     dataplane.DeviceID
	SrcIP  string
	Prefix interdomain.PrefixID
	QoS    int
	// Constraints carries the REQ QoS bounds.
	Constraints  routing.Constraints
	MaxTotalHops int
	Objective    routing.Objective
}

// UERecord is one UE table row.
type UERecord struct {
	UE     string
	BS     dataplane.DeviceID
	Group  dataplane.DeviceID
	Prefix interdomain.PrefixID
	QoS    int
	// PathID is the path at the resolving controller.
	PathID PathID
	// HandledBy is the controller that computed and owns the path (§5.1:
	// "whether the UE request has been handled locally or by the parent").
	// In one process it is the owning *Controller; in a distributed tree a
	// northbound proxy that forwards teardowns over the wire.
	HandledBy PathOwner
	Active    bool
}

// SetRadioIndex merges entries into the BS→group and group→attachment maps
// the mobility application needs (management-plane configuration).
// Existing entries for other keys are left in place — TransferBorderGroup
// relies on merge semantics to adopt one group into a live target leaf.
// Callers rebuilding an index from scratch (so stale entries must
// disappear) use ReconcileRadioIndex instead.
func (c *Controller) SetRadioIndex(bsGroup map[dataplane.DeviceID]dataplane.DeviceID, groupAttach map[dataplane.DeviceID]dataplane.PortRef) {
	c.ue.radio.merge(bsGroup, groupAttach)
}

// ReconcileRadioIndex replaces each non-nil index wholesale: entries
// absent from the replacement are dropped. A nil map leaves that index
// untouched. Non-leaf controllers re-deriving their radio view from
// children after a reconfiguration (§5.3.2) use this so a group moved
// between children does not leave a stale attachment behind.
func (c *Controller) ReconcileRadioIndex(bsGroup map[dataplane.DeviceID]dataplane.DeviceID, groupAttach map[dataplane.DeviceID]dataplane.PortRef) {
	c.ue.radio.reconcile(bsGroup, groupAttach)
}

// RemoveRadioGroup deletes a BS group's attachment and every BS mapped to
// it from the radio index, returning the removed BSes in sorted order —
// the explicit remove path a source leaf runs when a group leaves its
// region.
func (c *Controller) RemoveRadioGroup(group dataplane.DeviceID) []dataplane.DeviceID {
	return c.ue.radio.removeGroup(group)
}

// GroupOfBS resolves a base station's BS group (read-lock only; never
// contends with bearer record writers).
func (c *Controller) GroupOfBS(bs dataplane.DeviceID) (dataplane.DeviceID, bool) {
	return c.ue.radio.groupOf(bs)
}

// AttachOfGroup resolves a BS group's radio attachment (read-lock only).
func (c *Controller) AttachOfGroup(g dataplane.DeviceID) (dataplane.PortRef, bool) {
	return c.ue.radio.attachOf(g)
}

// UE returns a UE table row.
func (c *Controller) UE(ue string) (UERecord, bool) {
	return c.ue.get(ue)
}

// UECount reports the number of UE table rows.
func (c *Controller) UECount() int {
	return c.ue.count()
}

// UERecords returns a copy of every UE table row, sorted by UE ID.
func (c *Controller) UERecords() []UERecord {
	return c.ue.snapshot()
}

// ErrUnknownBS is returned for bearer requests from unconfigured base
// stations.
var ErrUnknownBS = errors.New("core: unknown base station")

// HandleBearerRequest processes a UE bearer request at a leaf controller
// (§5.1): route locally, delegating to ancestors when the local region
// cannot satisfy the QoS, then implement the path and record it. A repeat
// request for an attached UE keeps its bearer path when the request moves
// nothing in the core (same group, prefix, QoS and route on a live path
// this controller owns, §7.1 "most handovers are intra-group"); otherwise
// it replaces the path make-before-break (the new path is installed before
// the old one is released).
func (c *Controller) HandleBearerRequest(req BearerRequest) (*UERecord, error) {
	hold := c.ue.lockUE(req.UE)
	defer hold.unlock()
	rec, err := c.handleBearerRequestLocked(&req, false)
	if err != nil {
		return nil, err
	}
	return &rec, nil
}

// handleBearerRequestLocked is HandleBearerRequest under the caller-held
// per-UE operation lock, returning the UE's new table row by value. A
// request that is part of an intra-region handover counts the handover
// with the bearer. Keeping the path is the hot case, so installing and
// delegating a replacement run in frames of their own.
func (c *Controller) handleBearerRequestLocked(req *BearerRequest, handover bool) (UERecord, error) {
	group, ok := c.GroupOfBS(req.BS)
	if !ok {
		return UERecord{}, fmt.Errorf("%w: %s", ErrUnknownBS, req.BS)
	}
	attach, ok := c.AttachOfGroup(group)
	if !ok {
		return UERecord{}, fmt.Errorf("core: group %s has no attachment", group)
	}
	routeReq := RouteRequest{
		From:         attach,
		Prefix:       req.Prefix,
		Objective:    req.Objective,
		Constraints:  req.Constraints,
		MaxTotalHops: req.MaxTotalHops,
	}
	match := dataplane.Match{
		InPort: dataplane.PortAny, UE: req.UE, SrcIP: req.SrcIP,
		DstPrefix: string(req.Prefix), QoS: req.QoS,
	}
	// The per-UE operation lock is held, so the row cannot change under us.
	old, hasRow := c.ue.get(req.UE)
	live := hasRow && old.Active
	// Route locally first; when this region cannot satisfy the QoS the
	// request ascends the northbound (§4.2) and the resolving ancestor
	// implements the path and returns its handle.
	res, err := c.Route(routeReq)
	if err != nil {
		id, owner, err := c.delegateBearerUp(routeReq, match, req.Constraints.MinBandwidth)
		if err != nil {
			return UERecord{}, err
		}
		return c.replaceBearer(req, group, &old, live, id, owner, handover), nil
	}
	if live && old.HandledBy == PathOwner(c) &&
		old.Group == group && old.Prefix == req.Prefix && old.QoS == req.QoS &&
		c.pathCarries(old.PathID, match, req.Constraints.MinBandwidth, res.Path) {
		// Nothing moves in the core: the bearer keeps its path and only
		// the row's BS changes. Anything else — a route the topology
		// changed, a broken or ancestor-owned path — is replaced, which is
		// also what heals it.
		bs := req.BS // the closure captures one word, not the request: this path must not allocate for it
		c.ue.update(req.UE, func(r *UERecord) { r.BS = bs })
		pathsReused.Inc()
		c.countHandled(handover)
		old.BS = bs
		return old, nil
	}
	id, err := c.SetupPathWithDemand(match, res.Path, req.Constraints.MinBandwidth)
	if err != nil {
		return UERecord{}, err
	}
	return c.replaceBearer(req, group, &old, live, id, c, handover), nil
}

// replaceBearer records the UE's new path and releases the one it replaces
// (live when wasLive): re-admission replaces the UE's default bearer, so a
// repeated attach or an intra-region handover cannot leak an installed
// path no table row records. The new path is already carrying traffic
// (its classify rules outrank the old version's), so the release is
// best-effort cleanup.
func (c *Controller) replaceBearer(req *BearerRequest, group dataplane.DeviceID, old *UERecord, wasLive bool, id PathID, owner PathOwner, handover bool) UERecord {
	if wasLive {
		_ = old.HandledBy.TeardownPath(old.PathID, nil) //softmow:allow errdiscard best-effort release of the replaced bearer path; teardown is idempotent
	}
	rec := &UERecord{
		UE: req.UE, BS: req.BS, Group: group, Prefix: req.Prefix, QoS: req.QoS,
		PathID: id, HandledBy: owner, Active: true,
	}
	c.ue.put(rec)
	c.countHandled(handover)
	return *rec
}

// countHandled counts one handled bearer request, and the intra-region
// handover it served if any, in one c.mu section.
func (c *Controller) countHandled(handover bool) {
	c.mu.Lock()
	c.stats.BearersHandled++
	if handover {
		c.stats.HandoversHandled++
	}
	c.mu.Unlock()
}

// DeactivateBearer tears down a UE's path when it goes idle (§5.1: "If the
// UE bearer has been handled by the parent controller, the mobility
// application continues to request bearer deactivation from its parent via
// RecA").
func (c *Controller) DeactivateBearer(ue string) error {
	hold := c.ue.lockUE(ue)
	defer hold.unlock()
	return c.deactivateBearerLocked(ue)
}

// deactivateBearerLocked is DeactivateBearer under the caller-held per-UE
// operation lock.
func (c *Controller) deactivateBearerLocked(ue string) error {
	var rec UERecord
	ok := c.ue.update(ue, func(r *UERecord) {
		r.Active = false
		rec = *r
	})
	if !ok {
		return fmt.Errorf("core: unknown UE %s", ue)
	}
	return rec.HandledBy.TeardownPath(rec.PathID, nil)
}

// Detach removes a UE from the network entirely: its bearer path (if
// still active) is torn down via the controller that owns it and its UE
// table row is deleted. Detach is the terminal transition of the §5.1 UE
// lifecycle; re-attaching later is a fresh HandleBearerRequest.
func (c *Controller) Detach(ue string) error {
	hold := c.ue.lockUE(ue)
	defer hold.unlock()
	rec, ok := c.ue.get(ue)
	if !ok {
		return fmt.Errorf("core: unknown UE %s", ue)
	}
	var err error
	if rec.Active {
		err = rec.HandledBy.TeardownPath(rec.PathID, nil)
	}
	c.ue.remove(ue)
	return err
}

// HandoverRequest is the §5.2 inter-region handover request: "contains at
// least source and target G-BS IDs and BS IDs".
type HandoverRequest struct {
	UE        string
	SrcGBS    dataplane.DeviceID
	SrcBS     dataplane.DeviceID
	DstGBS    dataplane.DeviceID
	DstBS     dataplane.DeviceID
	Prefix    interdomain.PrefixID
	QoS       int
	Objective routing.Objective
}

// Handover moves a UE between base stations. When both stations are in
// this leaf's region the intra-region procedure applies; otherwise the
// request ascends to the lowest ancestor controlling both G-BSes (§5.2).
func (c *Controller) Handover(ue string, dstGBS, dstBS dataplane.DeviceID) error {
	hold := c.ue.lockUE(ue)
	defer hold.unlock()
	return c.handoverLocked(ue, dstGBS, dstBS)
}

// handoverLocked is Handover under the caller-held per-UE operation lock.
func (c *Controller) handoverLocked(ue string, dstGBS, dstBS dataplane.DeviceID) error {
	rec, ok := c.ue.get(ue)
	if !ok {
		return fmt.Errorf("core: unknown UE %s", ue)
	}
	if _, local := c.GroupOfBS(dstBS); local {
		// Intra-region handover: recompute the path from the new group.
		// handleBearerRequestLocked keeps the path when the new BS is in the
		// bearer's own group, else installs the new path first and then
		// releases the replaced one (make-before-break); either way it
		// rewrites the UE table row and counts the handover itself.
		_, err := c.handleBearerRequestLocked(&BearerRequest{
			UE: ue, BS: dstBS, Prefix: rec.Prefix, QoS: rec.QoS,
		}, true)
		return err
	}
	// Inter-region: find this UE's source G-BS and ascend.
	srcGBS, ok := c.gbsOfGroup(rec.Group)
	if !ok {
		return fmt.Errorf("core: group %s has no exposed G-BS", rec.Group)
	}
	pl := c.ParentLinkRef()
	if pl == nil {
		return fmt.Errorf("core: no ancestor for inter-region handover of %s", ue)
	}
	req := HandoverRequest{
		UE: ue, SrcGBS: srcGBS, SrcBS: rec.BS, DstGBS: dstGBS, DstBS: dstBS,
		Prefix: rec.Prefix, QoS: rec.QoS,
	}
	newPath, transfer, handledBy, err := pl.InterRegionHandover(req)
	if err != nil {
		return err
	}
	// The UE has switched: release the old path and the transfer path
	// together, then update the UE record (§5.2: "Once the handover
	// finishes, the root asks G-BS1 to release the resources. It then
	// removes old paths"). The two releases overlap and are joined once,
	// so the cleanup costs one fence phase. The new path is installed and
	// the handover has succeeded; failing it now over a cleanup error
	// would strand the UE worse than a leaked (idempotent, re-removable)
	// rule does.
	j := newFanJoin(nil)
	if rec.Active {
		j.left.Add(1)
		_ = rec.HandledBy.TeardownPath(rec.PathID, j.done) //softmow:allow errdiscard with a callback the outcome reaches the join
	}
	if transfer != 0 {
		j.left.Add(1)
		_ = handledBy.TeardownPath(transfer, j.done) //softmow:allow errdiscard with a callback the outcome reaches the join
	}
	_ = j.finish(nil) //softmow:allow errdiscard §5.2 old-path and transfer-path releases are best-effort after a committed handover
	c.ue.update(ue, func(r *UERecord) {
		r.BS = dstBS
		r.Group = "" // now controlled by the target leaf
		r.PathID = newPath
		r.HandledBy = handledBy
		// The handover just installed a live path, so the row is active
		// even if the UE was idle before — otherwise the new path could
		// never be deactivated or detached.
		r.Active = true
	})
	c.mu.Lock()
	c.stats.HandoversHandled++
	c.mu.Unlock()
	return nil
}

// gbsOfGroup maps a local BS group to the G-BS exposing it.
func (c *Controller) gbsOfGroup(group dataplane.DeviceID) (dataplane.DeviceID, bool) {
	ab := c.Abstraction()
	if ab == nil {
		return "", false
	}
	for _, g := range ab.GBSes {
		for _, member := range g.Groups {
			if member == group {
				return g.ID, true
			}
		}
	}
	return "", false
}

// handleInterRegionHandover runs the §5.2 ancestor procedure: if this
// controller sees both G-BSes it implements the new path and a transfer
// path for in-flight packets, records both and answers with both IDs
// (the transfer ID is 0 when there is none); otherwise it delegates
// upward. It releases nothing on success: the source leaf releases the
// transfer path together with the old path once the UE has switched.
func (c *Controller) handleInterRegionHandover(req HandoverRequest) (PathID, PathID, PathOwner, error) {
	srcPort, srcOK := c.findGBSPort(req.SrcGBS)
	dstPort, dstOK := c.findGBSPort(req.DstGBS)
	if !srcOK || !dstOK {
		pl := c.ParentLinkRef()
		if pl == nil {
			return 0, 0, nil, fmt.Errorf("core: no common ancestor for %s -> %s", req.SrcGBS, req.DstGBS)
		}
		c.mu.Lock()
		c.stats.DelegatedRequests++
		c.mu.Unlock()
		return pl.InterRegionHandover(req)
	}

	// The new egress path for the UE from the target G-BS, and a transfer
	// path from source to target G-BS for in-flight downlink packets (§5.2:
	// "implements a new path between G-BS1 and G-BS2 to transfer in-flight
	// packets"). Both batches are built first, drawing path IDs, versions
	// and labels in the order two back-to-back setups would, then flushed
	// together and joined once: the two installs cost one fence, not two.
	res, err := c.Route(RouteRequest{From: dstPort, Prefix: req.Prefix, Objective: req.Objective})
	if err != nil {
		return 0, 0, nil, fmt.Errorf("core: handover path for %s: %w", req.UE, err)
	}
	start := time.Now() //softmow:allow determinism wall clock feeds the setup-latency histogram only, never control decisions
	match := dataplane.Match{InPort: dataplane.PortAny, UE: req.UE, DstPrefix: string(req.Prefix), QoS: req.QoS}
	rec, b, err := c.preparePath(match, res.Path, 0)
	if err != nil {
		return 0, 0, nil, err
	}
	// The transfer path is best-effort: a missing path (e.g. detached
	// regions) or a failed install does not fail the handover.
	var xrec *PathRecord
	var xb *ruleBatch
	if tp, err := c.Graph().ShortestPath(srcPort, dstPort, routing.MinHops, routing.Constraints{}); err == nil {
		transferMatch := dataplane.Match{InPort: dataplane.PortAny, UE: req.UE, QoS: -1}
		xrec, xb, _ = c.preparePath(transferMatch, tp, 0) //softmow:allow errdiscard a transfer path that cannot be built is skipped, like one that cannot be routed
	}

	newc := make(chan error, 1)
	devs, err := c.issueBatch(b, rec.Owner, rec.Version, func(err error) { newc <- err })
	if err != nil {
		return 0, 0, nil, err // nothing was issued
	}
	var xdevs []Device
	var xferc chan error
	if xb != nil {
		xferc = make(chan error, 1)
		xdevs, _ = c.issueBatch(xb, xrec.Owner, xrec.Version, func(err error) { xferc <- err }) //softmow:allow errdiscard an unresolvable transfer path issued nothing and is skipped
	}
	newErr := <-newc
	if xdevs != nil {
		if err := <-xferc; err != nil || newErr != nil {
			// A failed transfer install is scrubbed like any failed flush;
			// an installed one goes too when the handover it served failed.
			c.scrubVersion(xdevs, xrec.Owner, xrec.Version)
			xdevs = nil
		}
	}
	if newErr != nil {
		c.scrubVersion(devs, rec.Owner, rec.Version)
		return 0, 0, nil, newErr
	}
	c.recordPath(rec)
	setupLatency.Observe(time.Since(start))
	var transfer PathID
	if xdevs != nil {
		c.recordPath(xrec)
		transfer = xrec.ID
	}

	c.mu.Lock()
	c.stats.InterRegionHandovers++
	c.mu.Unlock()
	return rec.ID, transfer, c, nil
}

// findGBSPort locates the port (on a child G-switch in this controller's
// topology) attaching the named G-BS.
func (c *Controller) findGBSPort(gbs dataplane.DeviceID) (dataplane.PortRef, bool) {
	for _, d := range c.NIB.Devices(dataplane.KindGSwitch) {
		for _, p := range d.Ports {
			if p.Radio == gbs {
				return dataplane.PortRef{Dev: d.ID, Port: p.ID}, true
			}
		}
	}
	// Leaf level: the G-BS may be a local group exposed by this controller
	// itself.
	if ref, ok := c.ue.radio.attachOf(gbs); ok {
		return ref, true
	}
	return dataplane.PortRef{}, false
}
