package core

import (
	"fmt"

	"repro/internal/dataplane"
	"repro/internal/discovery"
	"repro/internal/interdomain"
)

// PathOwner is the handle a UE table row keeps on the controller that
// computed and owns its bearer path (§5.1 "whether the UE request has been
// handled locally or by the parent"). In one process the owner is a
// *Controller; in a distributed tree a child holds a northbound proxy that
// forwards teardown requests over the wire.
type PathOwner interface {
	// OwnerID is the owning controller's ID.
	OwnerID() string
	// TeardownPath releases the owned path. With then nil it waits;
	// otherwise it returns nil at once and then receives the outcome.
	TeardownPath(id PathID, then func(error)) error
	// Path returns the owner's path record, when reachable. Remote proxies
	// report not-found: path-table introspection (chaos invariants) runs
	// in-process only.
	Path(id PathID) (PathRecord, bool)
}

// OwnerID implements PathOwner.
func (c *Controller) OwnerID() string { return c.ID }

// TranslatedRoute is one interdomain route option already translated into
// the parent's coordinates (egress ref on the child's exposed G-switch).
type TranslatedRoute struct {
	Prefix interdomain.PrefixID
	Option RouteOption
}

// ParentLink is the northbound a child controller speaks to its parent:
// delegation (§4.2), inter-region handover (§5.2), discovery-stack ascent
// (§4.1.2), interdomain propagation (§4.2), and abstraction refresh
// (§3.2, §5.3.2). AttachChild installs the in-process implementation;
// distributed deployments install a wire-backed one, so every upward code
// path in core is transport-agnostic.
type ParentLink interface {
	// ControllerID names the parent controller.
	ControllerID() string
	// DelegateBearer asks the parent to resolve and implement a bearer
	// path for a request already translated into parent coordinates.
	DelegateBearer(req RouteRequest, match dataplane.Match, demand float64) (PathID, PathOwner, error)
	// InterRegionHandover ascends a §5.2 handover to the lowest ancestor
	// seeing both G-BSes. It answers with the new path and the transfer
	// path (0 when there is none), both owned by owner and both still
	// installed: the source leaf releases the transfer path with the old
	// one, once the UE has switched.
	InterRegionHandover(req HandoverRequest) (path, transfer PathID, owner PathOwner, err error)
	// TeardownOwned releases a path owned by the named ancestor. With then
	// nil it waits; otherwise it returns nil at once and then receives
	// the outcome.
	TeardownOwned(owner string, id PathID, then func(error)) error
	// PushInterdomain delivers translated interdomain route options; the
	// parent appends them and continues propagation upward.
	PushInterdomain(routes []TranslatedRoute) error
	// DiscoveryArrival reports a discovery frame that crossed this child's
	// border, already translated to the child's exposed G-switch port.
	// Fire-and-forget: discovery is periodic and self-healing.
	DiscoveryArrival(gport dataplane.PortID, f *discovery.Frame)
	// ChildRefreshed tells the parent this child's abstraction changed: it
	// re-reads features, re-runs discovery, and re-abstracts upward.
	ChildRefreshed() error
	// FabricUpdated pushes a bandwidth-threshold fabric update (§3.2) for
	// this child's G-switch.
	FabricUpdated(fab *dataplane.VFabric) error
}

// SetParentLink installs the child's northbound. AttachChild does this
// automatically for in-process children; remote attachments install a
// wire-backed link instead.
func (c *Controller) SetParentLink(pl ParentLink) {
	c.mu.Lock()
	c.parentLink = pl
	c.mu.Unlock()
}

// ParentLinkRef returns the installed northbound link, or nil at the root.
func (c *Controller) ParentLinkRef() ParentLink {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parentLink
}

// localParent is the in-process ParentLink: direct method calls on the
// parent controller, preserving the exact semantics the tree had before
// the northbound went onto the wire.
type localParent struct {
	parent *Controller
	child  *Controller
}

// ControllerID implements ParentLink.
func (lp localParent) ControllerID() string { return lp.parent.ID }

// DelegateBearer implements ParentLink.
func (lp localParent) DelegateBearer(req RouteRequest, match dataplane.Match, demand float64) (PathID, PathOwner, error) {
	return lp.parent.DelegateBearerSetup(req, match, demand)
}

// InterRegionHandover implements ParentLink.
func (lp localParent) InterRegionHandover(req HandoverRequest) (PathID, PathID, PathOwner, error) {
	return lp.parent.HandleInterRegionHandoverRequest(req)
}

// TeardownOwned implements ParentLink.
func (lp localParent) TeardownOwned(owner string, id PathID, then func(error)) error {
	return lp.parent.TeardownOwnedPath(owner, id, then)
}

// PushInterdomain implements ParentLink.
func (lp localParent) PushInterdomain(routes []TranslatedRoute) error {
	return lp.parent.AcceptTranslatedRoutes(routes)
}

// DiscoveryArrival implements ParentLink.
func (lp localParent) DiscoveryArrival(gport dataplane.PortID, f *discovery.Frame) {
	lp.parent.HandleDiscoveryArrival(lp.child.GSwitchID(), gport, f)
}

// ChildRefreshed implements ParentLink.
func (lp localParent) ChildRefreshed() error {
	return lp.parent.RefreshChildAndReabstract(lp.child.GSwitchID())
}

// FabricUpdated implements ParentLink.
func (lp localParent) FabricUpdated(fab *dataplane.VFabric) error {
	lp.parent.UpdateChildFabric(lp.child.GSwitchID(), fab)
	return nil
}

// DelegateBearerSetup resolves a bearer route delegated by a child — req
// is already in this controller's coordinates — and implements the path
// here, or keeps ascending when this region cannot satisfy the QoS
// either (§4.2 delegation procedure).
func (c *Controller) DelegateBearerSetup(req RouteRequest, match dataplane.Match, demand float64) (PathID, PathOwner, error) {
	if res, err := c.Route(req); err == nil {
		id, err := c.SetupPathWithDemand(match, res.Path, demand)
		if err != nil {
			return 0, nil, err
		}
		return id, c, nil
	}
	return c.delegateBearerUp(req, match, demand)
}

// delegateBearerUp hands a bearer request this region cannot satisfy to
// the parent, with its source translated onto this controller's exposed
// G-switch (§4.2).
func (c *Controller) delegateBearerUp(req RouteRequest, match dataplane.Match, demand float64) (PathID, PathOwner, error) {
	pl := c.ParentLinkRef()
	if pl == nil {
		return 0, nil, ErrNoRoute
	}
	gport, ok := c.sourceGPort(req.From)
	if !ok {
		return 0, nil, fmt.Errorf("%w: source %v not exposed to parent", ErrNoRoute, req.From)
	}
	c.mu.Lock()
	c.stats.DelegatedRequests++
	c.mu.Unlock()
	req.From = dataplane.PortRef{Dev: c.GSwitchID(), Port: gport}
	return pl.DelegateBearer(req, match, demand)
}

// HandleInterRegionHandoverRequest runs the §5.2 ancestor procedure for a
// handover ascending from a child: implement the new path and the
// transfer path when both G-BSes are visible here, else keep delegating
// upward.
func (c *Controller) HandleInterRegionHandoverRequest(req HandoverRequest) (path, transfer PathID, owner PathOwner, err error) {
	return c.handleInterRegionHandover(req)
}

// TeardownOwnedPath releases a path on behalf of a descendant: locally
// when this controller owns it, otherwise forwarded up the tree toward
// the named owner. With then nil it waits; otherwise it returns nil at
// once and then receives the outcome.
func (c *Controller) TeardownOwnedPath(owner string, id PathID, then func(error)) error {
	if owner == c.ID {
		return c.TeardownPath(id, then)
	}
	pl := c.ParentLinkRef()
	if pl == nil {
		return settle(fmt.Errorf("core: %s: no route to path owner %s", c.ID, owner), then)
	}
	return pl.TeardownOwned(owner, id, then)
}

// AcceptTranslatedRoutes appends interdomain route options pushed up by a
// child (already in this controller's coordinates) and continues the §4.2
// propagation toward the root.
func (c *Controller) AcceptTranslatedRoutes(routes []TranslatedRoute) error {
	c.mu.Lock()
	for _, tr := range routes {
		c.routes[tr.Prefix] = append(c.routes[tr.Prefix], tr.Option)
	}
	c.mu.Unlock()
	return c.propagateInterdomain()
}

// RefreshChildAndReabstract re-reads a refreshed child G-switch's
// features, rediscovers inter-G-switch links, and re-abstracts upward
// (§5.3.2 bottom-to-top update). A child whose features cannot be read
// keeps its record, and nothing is rediscovered or reabstracted.
func (c *Controller) RefreshChildAndReabstract(gswitch dataplane.DeviceID) error {
	if d := c.Device(gswitch); d != nil {
		if err := c.refreshDevice(d); err != nil {
			return err
		}
	}
	c.RunDiscovery()
	c.Reabstract()
	return nil
}

// UpdateChildFabric installs a child's updated virtual fabric on its
// G-switch record in place — ports are unchanged, so links survive and no
// rediscovery is needed (§3.2). Unknown G-switches are ignored, matching
// the pre-wire in-place update.
func (c *Controller) UpdateChildFabric(gswitch dataplane.DeviceID, fab *dataplane.VFabric) {
	if d, ok := c.NIB.Device(gswitch); ok {
		d.Fabric = fab
		c.NIB.PutDevice(d)
	}
}

// AdoptUERecords inserts UE table rows wholesale — the receiving side of
// a northbound UE-state transfer (§5.3.2). Rows already present for the
// same UEs are overwritten.
func (c *Controller) AdoptUERecords(rows []UERecord) {
	for i := range rows {
		r := rows[i]
		c.ue.put(&r)
	}
}
