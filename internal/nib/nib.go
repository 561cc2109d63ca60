package nib

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataplane"
)

// Device is one NIB device record.
type Device struct {
	ID    dataplane.DeviceID
	Kind  dataplane.DeviceKind
	Ports []PortRecord
	// Fabric holds vFabric annotations for G-switch devices.
	Fabric *dataplane.VFabric
	// GBSes and GMiddleboxes record logical radio/middlebox devices
	// attached to a G-switch.
	GBSes        []dataplane.GBSInfo
	GMiddleboxes []dataplane.GMiddleboxInfo
}

// PortRecord is one device port in the NIB.
type PortRecord struct {
	ID             dataplane.PortID
	Up             bool
	External       bool
	ExternalDomain string
	// Radio names the BS group served through this port, if any.
	Radio dataplane.DeviceID
	// Underlying is the physical (device, port) a G-switch border port
	// maps to, when the exposing controller chose to reveal it. A cluster
	// launcher uses it to stitch inter-G-switch links between region
	// processes without rediscovery; zero for physical ports.
	Underlying dataplane.PortRef
}

// Link is one NIB link record between two device ports, annotated with the
// §3.2 metrics.
type Link struct {
	A, B      dataplane.PortRef
	Latency   time.Duration
	Bandwidth float64
	Up        bool
}

// Key returns the canonical (orientation-independent) link key.
func (l Link) Key() LinkKey { return NewLinkKey(l.A, l.B) }

// LinkKey canonically identifies a link by its endpoints.
type LinkKey struct {
	A, B dataplane.PortRef
}

// NewLinkKey normalizes endpoint order.
func NewLinkKey(a, b dataplane.PortRef) LinkKey {
	if b.Dev < a.Dev || (b.Dev == a.Dev && b.Port < a.Port) {
		a, b = b, a
	}
	return LinkKey{A: a, B: b}
}

// EventKind classifies NIB change events.
type EventKind int

const (
	// EvDeviceAdded fires on device registration or update.
	EvDeviceAdded EventKind = iota
	// EvDeviceRemoved fires on device removal.
	EvDeviceRemoved
	// EvLinkAdded fires when a link is discovered or updated.
	EvLinkAdded
	// EvLinkRemoved fires when a link is removed or goes down.
	EvLinkRemoved
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvDeviceAdded:
		return "device-added"
	case EvDeviceRemoved:
		return "device-removed"
	case EvLinkAdded:
		return "link-added"
	case EvLinkRemoved:
		return "link-removed"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one NIB change notification.
type Event struct {
	Kind   EventKind
	Device dataplane.DeviceID // device events
	Link   LinkKey            // link events
}

// Subscriber receives NIB change events. Callbacks run synchronously under
// no NIB lock; subscribers may re-enter the NIB.
type Subscriber func(Event)

// NIB is a concurrency-safe network information base.
type NIB struct {
	mu sync.RWMutex
	// devices holds the device records, guarded by mu.
	devices map[dataplane.DeviceID]*Device
	// links holds the link records, guarded by mu.
	links map[LinkKey]*Link
	// gen counts mutations; it is bumped inside the write critical section
	// of every state-changing operation, so any reader that observes a
	// generation value and then acquires the NIB lock sees at least all
	// mutations up to that generation. Consumers (the controller's routing
	// graph cache) compare generations to detect staleness without
	// subscribing to individual events.
	gen atomic.Uint64

	subMu sync.RWMutex
	// subs holds the change subscribers, guarded by subMu.
	subs map[int]Subscriber
	// nextS is the next subscriber id, guarded by subMu.
	nextS int

	log *EventLog
}

// New returns an empty NIB with an attached event log.
func New() *NIB {
	return &NIB{
		devices: make(map[dataplane.DeviceID]*Device),
		links:   make(map[LinkKey]*Link),
		subs:    make(map[int]Subscriber),
		log:     NewEventLog(),
	}
}

// Log exposes the NIB's durable event log (§6 failover).
func (n *NIB) Log() *EventLog { return n.log }

// Generation returns the NIB's mutation counter. It advances on every
// state change (device put/remove, link put/remove, Up-flag flip, snapshot
// restore) and never otherwise, so equal generations imply an unchanged
// topology view.
func (n *NIB) Generation() uint64 { return n.gen.Load() }

// PutDevice inserts or replaces a device record (copied).
func (n *NIB) PutDevice(d Device) {
	n.mu.Lock()
	dc := d
	dc.Ports = append([]PortRecord(nil), d.Ports...)
	dc.GBSes = append([]dataplane.GBSInfo(nil), d.GBSes...)
	dc.GMiddleboxes = append([]dataplane.GMiddleboxInfo(nil), d.GMiddleboxes...)
	if d.Fabric != nil {
		dc.Fabric = d.Fabric.Clone()
	}
	n.devices[d.ID] = &dc
	n.gen.Add(1)
	n.mu.Unlock()
	n.notify(Event{Kind: EvDeviceAdded, Device: d.ID})
}

// RemoveDevice deletes a device and all links touching it.
func (n *NIB) RemoveDevice(id dataplane.DeviceID) {
	n.mu.Lock()
	_, existed := n.devices[id]
	delete(n.devices, id)
	var dropped []LinkKey
	for k := range n.links {
		if k.A.Dev == id || k.B.Dev == id {
			dropped = append(dropped, k)
		}
	}
	// Sort so the EvLinkRemoved notifications below fire in a
	// map-iteration-independent order — subscribers append to the replayable
	// event log.
	sort.Slice(dropped, func(i, j int) bool {
		if dropped[i].A != dropped[j].A {
			return less(dropped[i].A, dropped[j].A)
		}
		return less(dropped[i].B, dropped[j].B)
	})
	for _, k := range dropped {
		delete(n.links, k)
	}
	if existed || len(dropped) > 0 {
		n.gen.Add(1)
	}
	n.mu.Unlock()
	if existed {
		n.notify(Event{Kind: EvDeviceRemoved, Device: id})
	}
	for _, k := range dropped {
		n.notify(Event{Kind: EvLinkRemoved, Link: k})
	}
}

// Device returns a copy of the device record.
func (n *NIB) Device(id dataplane.DeviceID) (Device, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	d, ok := n.devices[id]
	if !ok {
		return Device{}, false
	}
	return *d, true
}

// Devices returns all devices sorted by ID, optionally filtered by kind
// (pass dataplane.KindUnknown for all).
func (n *NIB) Devices(kind dataplane.DeviceKind) []Device {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Device, 0, len(n.devices))
	for _, d := range n.devices {
		if kind == dataplane.KindUnknown || d.Kind == kind {
			out = append(out, *d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PutLink inserts or updates a link record.
func (n *NIB) PutLink(l Link) {
	k := l.Key()
	n.mu.Lock()
	lc := l
	n.links[k] = &lc
	n.gen.Add(1)
	n.mu.Unlock()
	n.notify(Event{Kind: EvLinkAdded, Link: k})
}

// SetLinkUp flips a link record's Up flag in place, keeping the record so
// a later port-up can restore it (§6: flapped links must survive in the
// NIB; routing.BuildGraph skips down links). It fires EvLinkRemoved on a
// down transition and EvLinkAdded on an up transition, and reports whether
// the record exists.
func (n *NIB) SetLinkUp(k LinkKey, up bool) bool {
	n.mu.Lock()
	l, ok := n.links[k]
	changed := ok && l.Up != up
	if changed {
		l.Up = up
		n.gen.Add(1)
	}
	n.mu.Unlock()
	if changed {
		kind := EvLinkRemoved
		if up {
			kind = EvLinkAdded
		}
		n.notify(Event{Kind: kind, Link: k})
	}
	return ok
}

// NumUpLinks reports the number of link records currently marked up.
func (n *NIB) NumUpLinks() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	c := 0
	for _, l := range n.links {
		if l.Up {
			c++
		}
	}
	return c
}

// RemoveLink deletes a link record.
func (n *NIB) RemoveLink(k LinkKey) {
	n.mu.Lock()
	_, existed := n.links[k]
	delete(n.links, k)
	if existed {
		n.gen.Add(1)
	}
	n.mu.Unlock()
	if existed {
		n.notify(Event{Kind: EvLinkRemoved, Link: k})
	}
}

// LinkByKey returns a copy of the link record.
func (n *NIB) LinkByKey(k LinkKey) (Link, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l, ok := n.links[k]
	if !ok {
		return Link{}, false
	}
	return *l, true
}

// Links returns all link records in deterministic order.
func (n *NIB) Links() []Link {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Link, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := out[i].Key(), out[j].Key()
		if ki.A != kj.A {
			return less(ki.A, kj.A)
		}
		return less(ki.B, kj.B)
	})
	return out
}

func less(a, b dataplane.PortRef) bool {
	if a.Dev != b.Dev {
		return a.Dev < b.Dev
	}
	return a.Port < b.Port
}

// NumLinks reports the link count.
func (n *NIB) NumLinks() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.links)
}

// LinksOf returns links incident to a device.
func (n *NIB) LinksOf(id dataplane.DeviceID) []Link {
	var out []Link
	for _, l := range n.Links() {
		if l.A.Dev == id || l.B.Dev == id {
			out = append(out, l)
		}
	}
	return out
}

// Subscribe registers a change subscriber and returns an unsubscribe
// function.
func (n *NIB) Subscribe(s Subscriber) (cancel func()) {
	n.subMu.Lock()
	id := n.nextS
	n.nextS++
	n.subs[id] = s
	n.subMu.Unlock()
	return func() {
		n.subMu.Lock()
		delete(n.subs, id)
		n.subMu.Unlock()
	}
}

func (n *NIB) notify(ev Event) {
	// Subscribers run in registration order, not map order: callbacks can
	// have observable side effects (cache invalidation, event-log appends),
	// so their invocation order must not depend on map iteration.
	n.subMu.RLock()
	ids := make([]int, 0, len(n.subs))
	for id := range n.subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	subs := make([]Subscriber, 0, len(ids))
	for _, id := range ids {
		subs = append(subs, n.subs[id])
	}
	n.subMu.RUnlock()
	for _, s := range subs {
		s(ev)
	}
}

// Snapshot captures a deep copy of the NIB contents for standby
// synchronization.
func (n *NIB) Snapshot() *Snapshot {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s := &Snapshot{}
	for _, d := range n.devices {
		dc := *d
		dc.Ports = append([]PortRecord(nil), d.Ports...)
		if d.Fabric != nil {
			dc.Fabric = d.Fabric.Clone()
		}
		s.Devices = append(s.Devices, dc)
	}
	for _, l := range n.links {
		s.Links = append(s.Links, *l)
	}
	sort.Slice(s.Devices, func(i, j int) bool { return s.Devices[i].ID < s.Devices[j].ID })
	sort.Slice(s.Links, func(i, j int) bool {
		ki, kj := s.Links[i].Key(), s.Links[j].Key()
		if ki.A != kj.A {
			return less(ki.A, kj.A)
		}
		return less(ki.B, kj.B)
	})
	return s
}

// Restore replaces the NIB contents from a snapshot without firing
// subscriber events (used during standby promotion). The generation still
// advances so stale derived state (cached routing graphs) is invalidated
// even though no events fire.
func (n *NIB) Restore(s *Snapshot) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen.Add(1)
	n.devices = make(map[dataplane.DeviceID]*Device, len(s.Devices))
	for i := range s.Devices {
		d := s.Devices[i]
		n.devices[d.ID] = &d
	}
	n.links = make(map[LinkKey]*Link, len(s.Links))
	for i := range s.Links {
		l := s.Links[i]
		n.links[l.Key()] = &l
	}
}

// Snapshot is a point-in-time copy of NIB contents.
type Snapshot struct {
	Devices []Device
	Links   []Link
}
