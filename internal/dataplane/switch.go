package dataplane

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ControllerHook receives data-plane events punted to the control plane.
// The southbound layer adapts this to protocol messages; tests may install
// function hooks directly.
type ControllerHook interface {
	// PacketIn is invoked when a rule punts a packet (or on a table miss
	// when the switch is configured to punt misses).
	PacketIn(sw DeviceID, inPort PortID, p *Packet)
	// PortStatus is invoked when a port's link changes state.
	PortStatus(sw DeviceID, port PortID, up bool)
}

// HookFuncs adapts plain functions to ControllerHook. Nil fields are
// ignored.
type HookFuncs struct {
	OnPacketIn   func(sw DeviceID, inPort PortID, p *Packet)
	OnPortStatus func(sw DeviceID, port PortID, up bool)
}

// PacketIn implements ControllerHook.
func (h HookFuncs) PacketIn(sw DeviceID, inPort PortID, p *Packet) {
	if h.OnPacketIn != nil {
		h.OnPacketIn(sw, inPort, p)
	}
}

// PortStatus implements ControllerHook.
func (h HookFuncs) PortStatus(sw DeviceID, port PortID, up bool) {
	if h.OnPortStatus != nil {
		h.OnPortStatus(sw, port, up)
	}
}

// Switch is a programmable data-plane switch: a set of ports plus a flow
// table. Switches do not know about controllers beyond the hook; all
// intelligence lives in the control plane (§2.1: "a fabric of simple core
// switches").
type Switch struct {
	ID    DeviceID
	Table *FlowTable
	// IsAccess marks base-station access switches that perform fine-grained
	// classification (§2.1).
	IsAccess bool
	// IsEgress marks switches hosting an Internet egress point.
	IsEgress bool
	// PuntMisses punts table-miss packets to the controller instead of
	// dropping them (default true, as in reactive OpenFlow deployments).
	PuntMisses bool

	mu    sync.RWMutex
	ports map[PortID]*Port
	hook  ControllerHook
}

// Port is one switch port, possibly attached to a link.
type Port struct {
	ID   PortID
	Link *Link
	// External marks ports that face outside the operator network (ISP or
	// peering); these become G-switch border ports in the abstraction.
	External bool
	// ExternalDomain names the peer domain for external ports.
	ExternalDomain string
	// Radio names the BS group served through this port on an access
	// switch; packets output here are delivered to UEs over the air.
	Radio DeviceID
}

// NewSwitch creates a switch with an empty flow table and no ports.
func NewSwitch(id DeviceID) *Switch {
	return &Switch{
		ID:         id,
		Table:      NewFlowTable(),
		PuntMisses: true,
		ports:      make(map[PortID]*Port),
	}
}

// SetHook installs the controller hook (may be nil).
func (s *Switch) SetHook(h ControllerHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// Hook returns the installed controller hook, or nil.
func (s *Switch) Hook() ControllerHook {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hook
}

// AddPort creates port id on the switch. It panics on duplicates: port
// layout is static configuration, and a duplicate is a topology bug.
func (s *Switch) AddPort(id PortID) *Port {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.ports[id]; dup {
		panic(fmt.Sprintf("dataplane: duplicate port %d on %s", id, s.ID))
	}
	p := &Port{ID: id}
	s.ports[id] = p
	return p
}

// NextFreePort allocates the lowest unused port number ≥ 1.
func (s *Switch) NextFreePort() PortID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id := PortID(1); ; id++ {
		if _, used := s.ports[id]; !used {
			return id
		}
	}
}

// PortByID returns the port or nil.
func (s *Switch) PortByID(id PortID) *Port {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ports[id]
}

// Ports returns the switch's ports sorted by ID.
func (s *Switch) Ports() []*Port {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Port, 0, len(s.ports))
	for _, p := range s.ports {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Link is a bidirectional physical link between two device ports, annotated
// with the metrics the vFabric abstraction exposes (§3.2).
type Link struct {
	A, B      PortRef
	Latency   time.Duration
	Bandwidth float64 // Mbps capacity

	mu       sync.Mutex
	reserved float64 // Mbps currently reserved by admitted paths
	up       bool
}

// NewLink creates an up link between two port refs.
func NewLink(a, b PortRef, latency time.Duration, bandwidthMbps float64) *Link {
	return &Link{A: a, B: b, Latency: latency, Bandwidth: bandwidthMbps, up: true}
}

// Up reports link state.
func (l *Link) Up() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.up
}

// SetUp changes link state.
func (l *Link) SetUp(up bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.up = up
}

// Available returns the unreserved bandwidth in Mbps.
func (l *Link) Available() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.up {
		return 0
	}
	return l.Bandwidth - l.reserved
}

// Reserve admits mbps of traffic onto the link; it fails without side
// effects if insufficient bandwidth remains or the link is down.
func (l *Link) Reserve(mbps float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.up {
		return fmt.Errorf("dataplane: link %v-%v is down", l.A, l.B)
	}
	if l.reserved+mbps > l.Bandwidth {
		return fmt.Errorf("dataplane: link %v-%v has %.1f Mbps free, need %.1f",
			l.A, l.B, l.Bandwidth-l.reserved, mbps)
	}
	l.reserved += mbps
	return nil
}

// Release returns mbps of reserved bandwidth.
func (l *Link) Release(mbps float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reserved -= mbps
	if l.reserved < 0 {
		l.reserved = 0
	}
}

// Other returns the far endpoint from the perspective of dev, and whether
// dev is actually an endpoint of the link.
func (l *Link) Other(dev DeviceID) (PortRef, bool) {
	switch dev {
	case l.A.Dev:
		return l.B, true
	case l.B.Dev:
		return l.A, true
	default:
		return PortRef{}, false
	}
}

// String implements fmt.Stringer.
func (l *Link) String() string {
	return fmt.Sprintf("%v<->%v lat=%v bw=%.0fMbps", l.A, l.B, l.Latency, l.Bandwidth)
}
