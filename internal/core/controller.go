package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/metrics"
	"repro/internal/nib"
	"repro/internal/pathimpl"
	"repro/internal/reca"
	"repro/internal/routing"
)

// Graph-cache observability (ONOS-style event-invalidated topology cache):
// hits return the cached graph with two atomic loads; misses rebuild from
// the NIB. rebuilds ≤ misses — concurrent misses coalesce on one build.
var (
	graphCacheHits   = metrics.NewCounter("core.graph.cache_hits")
	graphCacheMisses = metrics.NewCounter("core.graph.cache_misses")
	graphRebuilds    = metrics.NewCounter("core.graph.rebuilds")
	graphBuildTime   = metrics.NewDurationHist("core.graph.build_latency")
)

// cachedGraph pairs an immutable routing graph with the NIB generation it
// was built from.
type cachedGraph struct {
	gen uint64
	g   *routing.Graph
}

// Controller is one SoftMoW controller node.
type Controller struct {
	// ID is the globally unique controller identifier (§3.1).
	ID string
	// Level is the tree level; 1 for leaves.
	Level int
	// Index is the controller's global index, used for disjoint label
	// ranges.
	Index int
	// Mode selects recursive label swapping (default) or the stacking
	// baseline for path translation (§4.3).
	Mode pathimpl.Mode

	// NIB is this controller's network information base (§4).
	NIB *nib.NIB

	// graphCache holds the last routing graph built from the NIB, tagged
	// with the NIB generation it reflects. NIB change events clear it
	// eagerly (Subscribe wiring in NewController); Graph() revalidates the
	// generation before returning, which also covers mutations that fire
	// no events (snapshot Restore during standby promotion).
	graphCache atomic.Pointer[cachedGraph]
	// graphBuildMu serializes rebuilds so concurrent misses coalesce into
	// one BuildGraph instead of racing N builds.
	graphBuildMu sync.Mutex

	mu sync.Mutex
	// parent is the tree parent, guarded by mu.
	parent *Controller
	// parentLink is the northbound channel to the parent (in-process or
	// wire-backed), guarded by mu.
	parentLink ParentLink
	// devices maps attached device IDs to adapters, guarded by mu.
	devices map[dataplane.DeviceID]Device
	// children maps child G-switch IDs to child controllers, guarded by mu.
	children map[dataplane.DeviceID]*Controller

	// cfg is the RecA configuration, guarded by mu.
	cfg reca.Config
	// abstraction is the last computed abstraction, guarded by mu.
	abstraction *reca.Abstraction

	// alloc and versions are internally synchronized (atomic counters).
	alloc    *pathimpl.Allocator
	versions *pathimpl.VersionCounter

	// routes holds interdomain routes known in this controller's region,
	// keyed by prefix; each option names the local egress port ref.
	// guarded by mu.
	routes map[interdomain.PrefixID][]RouteOption

	// paths maps path IDs to records, guarded by mu.
	paths map[PathID]*PathRecord
	// nextPath is the last allocated path ID, guarded by mu.
	nextPath PathID
	// translated maps each parent owner tag this controller translated to
	// where the rules went (RemoveTranslated), guarded by mu.
	translated map[string]translatedSet

	// ue is the sharded UE store; it carries its own striped locks
	// (ueshard.go), independent of mu.
	ue *ueState

	// stats counts controller activity, guarded by mu.
	stats Stats
}

// Stats counts controller activity, used by the evaluation and examples.
type Stats struct {
	PacketIns            int
	LinksDiscovered      int
	RulesInstalled       int
	RulesTranslated      int
	DelegatedRequests    int
	BearersHandled       int
	HandoversHandled     int
	InterRegionHandovers int
	Reabstractions       int
}

// NewController creates a controller with the given identity.
func NewController(id string, level, index int) *Controller {
	c := &Controller{
		ID:         id,
		Level:      level,
		Index:      index,
		NIB:        nib.New(),
		devices:    make(map[dataplane.DeviceID]Device),
		children:   make(map[dataplane.DeviceID]*Controller),
		alloc:      pathimpl.NewAllocator(index),
		versions:   &pathimpl.VersionCounter{},
		routes:     make(map[interdomain.PrefixID][]RouteOption),
		paths:      make(map[PathID]*PathRecord),
		translated: make(map[string]translatedSet),
		ue:         newUEState(DefaultUEShards),
	}
	// Eager cache invalidation: any NIB change event drops the cached
	// routing graph immediately (freeing it for GC); the generation check
	// in Graph() is the correctness backstop for event-less mutations.
	c.NIB.Subscribe(func(nib.Event) { c.graphCache.Store(nil) })
	return c
}

// Stats returns a snapshot of the controller's counters.
func (c *Controller) StatsSnapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Parent returns the parent controller (nil at the root).
func (c *Controller) Parent() *Controller {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parent
}

// GSwitchID names the G-switch this controller exposes to its parent.
func (c *Controller) GSwitchID() dataplane.DeviceID {
	return reca.GSwitchID(c.ID)
}

// controllerBound is implemented by device adapters that deliver events to
// an owning controller (SwitchDevice, ConnDevice).
type controllerBound interface {
	setController(*Controller)
}

// AttachDevice registers a device under this controller's control and
// records it in the NIB from its feature reply. Event-capable adapters get
// their back-pointer wired so events flow to this controller.
func (c *Controller) AttachDevice(d Device) {
	if cb, ok := d.(controllerBound); ok {
		cb.setController(c)
	}
	c.mu.Lock()
	c.devices[d.ID()] = d
	c.mu.Unlock()
	//softmow:allow errdiscard a device that cannot describe itself stays out of the NIB, so no route uses it
	_ = c.refreshDevice(d)
}

// DetachDevice removes a device from this controller (region
// reconfiguration, §5.3.2).
func (c *Controller) DetachDevice(id dataplane.DeviceID) Device {
	c.mu.Lock()
	d := c.devices[id]
	delete(c.devices, id)
	c.mu.Unlock()
	if d != nil {
		c.NIB.RemoveDevice(id)
		if cb, ok := d.(controllerBound); ok {
			cb.setController(nil)
		}
	}
	return d
}

// AttachChild links a child controller under this one and registers its
// G-switch as a logical device.
func (c *Controller) AttachChild(child *Controller) {
	ld := &logicalDevice{child: child}
	child.mu.Lock()
	child.parent = c
	child.parentLink = localParent{parent: c, child: child}
	child.mu.Unlock()
	c.mu.Lock()
	c.children[child.GSwitchID()] = child
	c.devices[ld.ID()] = ld
	c.mu.Unlock()
	//softmow:allow errdiscard an in-process child's features never fail
	_ = c.refreshDevice(ld)
}

// Device returns the controller's handle on a device, or nil.
func (c *Controller) Device(id dataplane.DeviceID) Device {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.devices[id]
}

// Devices returns all attached devices in deterministic order.
func (c *Controller) Devices() []Device {
	c.mu.Lock()
	ids := make([]dataplane.DeviceID, 0, len(c.devices))
	for id := range c.devices {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	dataplane.SortDeviceIDs(ids)
	out := make([]Device, 0, len(ids))
	for _, id := range ids {
		if d := c.Device(id); d != nil {
			out = append(out, d)
		}
	}
	return out
}

// Children returns child controllers in deterministic order.
func (c *Controller) Children() []*Controller {
	c.mu.Lock()
	ids := make([]dataplane.DeviceID, 0, len(c.children))
	for id := range c.children {
		ids = append(ids, id)
	}
	kids := c.children
	c.mu.Unlock()
	dataplane.SortDeviceIDs(ids)
	out := make([]*Controller, 0, len(ids))
	for _, id := range ids {
		out = append(out, kids[id])
	}
	return out
}

// SetConfig installs the management-plane radio/middlebox configuration
// (§3.3: "The management plane bootstraps the recursive control plane").
func (c *Controller) SetConfig(cfg reca.Config) {
	c.mu.Lock()
	c.cfg = cfg
	c.mu.Unlock()
}

// Config returns the current configuration.
func (c *Controller) Config() reca.Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg
}

// refreshDevice (re)loads a device's features into the NIB — the G-switch
// discovery step of §4.1.1. Stale link records referencing ports the
// device no longer exposes are purged (re-abstraction after a region
// reconfiguration changes border port sets, §5.3.2). A device that cannot
// give its features keeps the record it had: an empty reply would strip
// its ports, fabric and links.
func (c *Controller) refreshDevice(d Device) error {
	fr, err := d.Features()
	if err != nil {
		return err
	}
	dev := nib.Device{ID: fr.Device, Kind: fr.Kind, Fabric: fr.Fabric,
		GBSes: fr.GBSes, GMiddleboxes: fr.GMiddleboxes}
	ports := make(map[dataplane.PortID]bool, len(fr.Ports))
	for _, p := range fr.Ports {
		ports[p.ID] = true
		dev.Ports = append(dev.Ports, nib.PortRecord{
			ID: p.ID, Up: p.Up, External: p.External,
			ExternalDomain: p.ExternalDomain, Radio: p.Radio,
			Underlying: p.Underlying,
		})
	}
	c.NIB.PutDevice(dev)
	if fr.Kind == dataplane.KindGSwitch {
		// Re-abstraction renumbers a G-switch's border ports, so all its
		// link records are stale; the caller re-runs discovery.
		for _, l := range c.NIB.LinksOf(fr.Device) {
			c.NIB.RemoveLink(l.Key())
		}
		return nil
	}
	for _, l := range c.NIB.LinksOf(fr.Device) {
		for _, end := range []dataplane.PortRef{l.A, l.B} {
			if end.Dev == fr.Device && !ports[end.Port] {
				c.NIB.RemoveLink(l.Key())
			}
		}
	}
	return nil
}

// Graph returns the routing graph over the controller's current NIB view.
// The graph is cached and event-invalidated: it is rebuilt only when the
// NIB generation has advanced since the last build, so the steady-state
// hot path (bearer setup, reroute, policy, repair) pays two atomic loads
// instead of a full port-expanded reconstruction.
//
// Returned graphs are immutable snapshots, safe for concurrent use. A
// Graph() call that starts after a NIB mutation completes never returns a
// graph older than that mutation: the generation is read before the build,
// so a build racing a mutation is tagged stale and the next call rebuilds.
func (c *Controller) Graph() *routing.Graph {
	if cc := c.graphCache.Load(); cc != nil && cc.gen == c.NIB.Generation() {
		graphCacheHits.Inc()
		return cc.g
	}
	graphCacheMisses.Inc()
	c.graphBuildMu.Lock()
	defer c.graphBuildMu.Unlock()
	gen := c.NIB.Generation()
	if cc := c.graphCache.Load(); cc != nil && cc.gen == gen {
		return cc.g // another miss rebuilt while we waited for the lock
	}
	start := time.Now() //softmow:allow determinism wall clock feeds the graph-build histogram only, never control decisions
	g := routing.BuildGraph(c.NIB)
	graphBuildTime.Observe(time.Since(start))
	graphRebuilds.Inc()
	c.graphCache.Store(&cachedGraph{gen: gen, g: g})
	return g
}

// HandlePacketIn receives punted data-plane packets (table misses, explicit
// punts). The mobility application consumes bearer requests; everything
// else is counted and dropped.
func (c *Controller) HandlePacketIn(dev dataplane.DeviceID, inPort dataplane.PortID, p *dataplane.Packet) {
	c.mu.Lock()
	c.stats.PacketIns++
	c.mu.Unlock()
}

// HandlePortStatus reacts to link state changes: the NIB link record is
// updated and affected paths recomputed lazily (§6). The record is kept on
// port-down with Up=false — routing.BuildGraph already excludes down links
// — so a later port-up restores the link without a full re-discovery
// round; a flapped link is never lost from the NIB.
func (c *Controller) HandlePortStatus(dev dataplane.DeviceID, port dataplane.PortID, up bool) {
	ref := dataplane.PortRef{Dev: dev, Port: port}
	for _, l := range c.NIB.LinksOf(dev) {
		if l.A == ref || l.B == ref {
			c.NIB.SetLinkUp(l.Key(), up)
		}
	}
}

// String implements fmt.Stringer.
func (c *Controller) String() string {
	return fmt.Sprintf("controller(%s level=%d)", c.ID, c.Level)
}
