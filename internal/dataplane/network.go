package dataplane

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Network is the container for one physical data plane: switches, links,
// radio access elements, middleboxes and egress points. It provides
// wiring helpers and the packet-traversal engine.
type Network struct {
	mu sync.RWMutex
	// switches maps device IDs to switches, guarded by mu.
	switches map[DeviceID]*Switch
	// links is every link in insertion order, guarded by mu.
	links []*Link
	// linksByPort indexes links by either endpoint, guarded by mu.
	linksByPort map[PortRef]*Link
	// middleboxes maps middlebox IDs to records, guarded by mu.
	middleboxes map[DeviceID]*Middlebox
	// mbByPort indexes middleboxes by attachment port, guarded by mu.
	mbByPort map[PortRef]*Middlebox
	// egress maps egress names to egress points, guarded by mu.
	egress map[string]*EgressPoint
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		switches:    make(map[DeviceID]*Switch),
		linksByPort: make(map[PortRef]*Link),
		middleboxes: make(map[DeviceID]*Middlebox),
		mbByPort:    make(map[PortRef]*Middlebox),
		egress:      make(map[string]*EgressPoint),
	}
}

// AddSwitch registers a new switch with the given ID and returns it.
// Duplicate IDs panic: topology construction is static configuration.
func (n *Network) AddSwitch(id DeviceID) *Switch {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.switches[id]; dup {
		panic(fmt.Sprintf("dataplane: duplicate switch %s", id))
	}
	sw := NewSwitch(id)
	n.switches[id] = sw
	return sw
}

// Switch returns the switch or nil.
func (n *Network) Switch(id DeviceID) *Switch {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.switches[id]
}

// Switches returns all switches sorted by ID.
func (n *Network) Switches() []*Switch {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*Switch, 0, len(n.switches))
	for _, s := range n.switches {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Connect creates a link between fresh ports on switches a and b and
// returns it. Latency/bandwidth annotate the link (§3.2 metrics).
func (n *Network) Connect(a, b DeviceID, latency time.Duration, bandwidthMbps float64) (*Link, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sa, sb := n.switches[a], n.switches[b]
	if sa == nil || sb == nil {
		return nil, fmt.Errorf("dataplane: connect %s-%s: unknown switch", a, b)
	}
	pa := sa.AddPort(sa.NextFreePort())
	pb := sb.AddPort(sb.NextFreePort())
	l := NewLink(PortRef{a, pa.ID}, PortRef{b, pb.ID}, latency, bandwidthMbps)
	pa.Link = l
	pb.Link = l
	n.links = append(n.links, l)
	n.linksByPort[l.A] = l
	n.linksByPort[l.B] = l
	return l, nil
}

// Links returns all links (shared slice header copy; links themselves are
// shared and concurrency-safe).
func (n *Network) Links() []*Link {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]*Link(nil), n.links...)
}

// LinkAt returns the link attached at a port ref, or nil.
func (n *Network) LinkAt(ref PortRef) *Link {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.linksByPort[ref]
}

// SetLinkState flips a link up/down and notifies both endpoint switches'
// controller hooks with PortStatus events.
func (n *Network) SetLinkState(l *Link, up bool) {
	l.SetUp(up)
	for _, ref := range []PortRef{l.A, l.B} {
		if sw := n.Switch(ref.Dev); sw != nil {
			if h := sw.Hook(); h != nil {
				h.PortStatus(ref.Dev, ref.Port, up)
			}
		}
	}
}

// AttachMiddlebox registers a middlebox on a fresh port of its switch.
func (n *Network) AttachMiddlebox(mb *Middlebox) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	sw := n.switches[mb.Attach.Dev]
	if sw == nil {
		return fmt.Errorf("dataplane: middlebox %s attaches to unknown switch %s", mb.ID, mb.Attach.Dev)
	}
	if mb.Attach.Port == 0 {
		p := sw.AddPort(sw.NextFreePort())
		mb.Attach.Port = p.ID
	}
	n.middleboxes[mb.ID] = mb
	n.mbByPort[mb.Attach] = mb
	return nil
}

// Middleboxes returns all middleboxes sorted by ID.
func (n *Network) Middleboxes() []*Middlebox {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*Middlebox, 0, len(n.middleboxes))
	for _, m := range n.middleboxes {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MiddleboxAt returns the middlebox attached at a port ref, or nil.
func (n *Network) MiddleboxAt(ref PortRef) *Middlebox {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.mbByPort[ref]
}

// AddRadioPort creates a fresh port on an access switch serving a BS
// group's radio side and returns it. Packets output on it are delivered to
// UEs; packets from UEs enter the switch on it.
func (n *Network) AddRadioPort(swID, groupID DeviceID) (*Port, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sw := n.switches[swID]
	if sw == nil {
		return nil, fmt.Errorf("dataplane: radio port on unknown switch %s", swID)
	}
	p := sw.AddPort(sw.NextFreePort())
	p.Radio = groupID
	sw.IsAccess = true
	return p, nil
}

// AddEgress marks a fresh external port on a switch as an Internet egress
// point and returns it.
func (n *Network) AddEgress(id string, swID DeviceID, peerDomain string) (*EgressPoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sw := n.switches[swID]
	if sw == nil {
		return nil, fmt.Errorf("dataplane: egress %s on unknown switch %s", id, swID)
	}
	p := sw.AddPort(sw.NextFreePort())
	p.External = true
	p.ExternalDomain = peerDomain
	sw.IsEgress = true
	ep := &EgressPoint{ID: id, Switch: swID, Port: p.ID, PeerDomain: peerDomain}
	n.egress[id] = ep
	return ep, nil
}

// EgressPoints returns all egress points sorted by ID.
func (n *Network) EgressPoints() []*EgressPoint {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*EgressPoint, 0, len(n.egress))
	for _, e := range n.egress {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// InstallRule installs r on a switch, reserving r.Demand Mbps on the link
// behind the rule's output port. Installation fails — leaving no state —
// when the reservation cannot be admitted.
func (n *Network) InstallRule(swID DeviceID, r Rule) error {
	sw := n.Switch(swID)
	if sw == nil {
		return fmt.Errorf("dataplane: install on unknown switch %s", swID)
	}
	if r.Demand > 0 {
		if l := n.outputLink(sw, r); l != nil {
			if err := l.Reserve(r.Demand); err != nil {
				return err
			}
		}
	}
	sw.Table.Add(r)
	return nil
}

// RemoveRulesIf removes matching rules from a switch, releasing their
// bandwidth reservations, and returns the number removed.
func (n *Network) RemoveRulesIf(swID DeviceID, pred func(*Rule) bool) int {
	sw := n.Switch(swID)
	if sw == nil {
		return 0
	}
	removed := sw.Table.TakeIf(pred)
	for _, r := range removed {
		if r.Demand > 0 {
			if l := n.outputLink(sw, *r); l != nil {
				l.Release(r.Demand)
			}
		}
	}
	return len(removed)
}

// RemoveRulesOwner removes owner's rules matching pred (nil matches all
// of them) from a switch, releasing their bandwidth reservations, and
// returns the number removed. Unlike RemoveRulesIf this goes through the
// flow table's per-owner index, so the cost is proportional to the
// owner's own rules rather than the whole table.
func (n *Network) RemoveRulesOwner(swID DeviceID, owner string, pred func(*Rule) bool) int {
	sw := n.Switch(swID)
	if sw == nil {
		return 0
	}
	removed := sw.Table.TakeOwnerIf(owner, pred)
	for _, r := range removed {
		if r.Demand > 0 {
			if l := n.outputLink(sw, *r); l != nil {
				l.Release(r.Demand)
			}
		}
	}
	return len(removed)
}

// outputLink resolves the link behind a rule's output port (nil for
// external, radio, middlebox or linkless ports).
func (n *Network) outputLink(sw *Switch, r Rule) *Link {
	for _, a := range r.Actions {
		if a.Op == OpOutput {
			if p := sw.PortByID(a.Port); p != nil && !p.External && p.Radio == "" {
				return p.Link
			}
			return nil
		}
	}
	return nil
}

// Neighbors returns, for switch id, pairs of (local port, far end) over up
// links, sorted by local port.
func (n *Network) Neighbors(id DeviceID) []Adjacency {
	sw := n.Switch(id)
	if sw == nil {
		return nil
	}
	var out []Adjacency
	for _, p := range sw.Ports() {
		if p.Link == nil || !p.Link.Up() {
			continue
		}
		far, ok := p.Link.Other(id)
		if !ok {
			continue
		}
		out = append(out, Adjacency{LocalPort: p.ID, Remote: far, Link: p.Link})
	}
	return out
}

// Adjacency is one usable neighbor relationship from a switch's viewpoint.
type Adjacency struct {
	LocalPort PortID
	Remote    PortRef
	Link      *Link
}
