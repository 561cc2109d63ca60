package dataplane

import (
	"errors"
	"fmt"
	"time"
)

// Disposition describes how a packet's traversal ended.
type Disposition int

const (
	// DispDropped means an explicit drop action or a table miss on a
	// non-punting switch.
	DispDropped Disposition = iota
	// DispEgressed means the packet left via an external (egress) port.
	DispEgressed
	// DispPunted means a rule (or a table miss on a punting switch) sent
	// the packet to the controller.
	DispPunted
	// DispLooped means the TTL budget was exhausted (a forwarding loop).
	DispLooped
	// DispBlackholed means the packet was forwarded onto a down link or a
	// port with no link.
	DispBlackholed
	// DispDelivered means the packet was handed to a base-station group's
	// radio side for over-the-air delivery to a UE.
	DispDelivered
)

// String implements fmt.Stringer.
func (d Disposition) String() string {
	switch d {
	case DispDropped:
		return "dropped"
	case DispEgressed:
		return "egressed"
	case DispPunted:
		return "punted"
	case DispLooped:
		return "looped"
	case DispBlackholed:
		return "blackholed"
	case DispDelivered:
		return "delivered"
	default:
		return fmt.Sprintf("disposition(%d)", int(d))
	}
}

// TraversalResult summarizes one packet's trip through the data plane.
type TraversalResult struct {
	Disposition Disposition
	// Hops is the number of switch-to-switch forwarding steps taken inside
	// the operator network.
	Hops int
	// Latency accumulates link latencies along the path.
	Latency time.Duration
	// EgressPort is the final external port when Disposition is
	// DispEgressed.
	EgressPort PortRef
	// PuntedAt is where the packet went to the controller, when punted.
	PuntedAt PortRef
	// MaxLabelDepth is the maximum label-stack depth observed on any link
	// (the §4.3 invariant subject).
	MaxLabelDepth int
	// Packet is the (mutated) packet, with its Trace populated.
	Packet *Packet
}

// DefaultTTL bounds traversal length; the 321-switch evaluation topologies
// have diameters far below this.
const DefaultTTL = 64

// MiddleboxProcessingLatency is the modeled per-visit middlebox delay.
const MiddleboxProcessingLatency = time.Millisecond

// ErrNoIngress is returned when injecting at an unknown switch.
var ErrNoIngress = errors.New("dataplane: ingress switch not found")

// Inject sends packet p into switch sw via inPort (use PortAny for locally
// originated traffic, e.g. from a base station's access side) and walks the
// data plane until the packet egresses, drops, punts, loops out of TTL, or
// black-holes.
func (n *Network) Inject(swID DeviceID, inPort PortID, p *Packet) (TraversalResult, error) {
	res := TraversalResult{Packet: p}
	cur := n.Switch(swID)
	if cur == nil {
		return res, fmt.Errorf("%w: %s", ErrNoIngress, swID)
	}
	ttl := DefaultTTL
	for {
		if ttl == 0 {
			res.Disposition = DispLooped
			return res, nil
		}
		ttl--
		rule, ok := cur.Table.Lookup(inPort, p)
		if !ok {
			if cur.PuntMisses {
				res.Disposition = DispPunted
				res.PuntedAt = PortRef{cur.ID, inPort}
				if h := cur.Hook(); h != nil {
					h.PacketIn(cur.ID, inPort, p)
				}
				return res, nil
			}
			res.Disposition = DispDropped
			return res, nil
		}
		var outPort PortID
		decided := false
	actions:
		for _, a := range rule.Actions {
			switch a.Op {
			case OpPushLabel:
				p.PushLabel(a.Label)
			case OpPopLabel:
				p.PopLabel()
			case OpSwapLabel:
				p.SwapLabel(a.Label)
			case OpOutput:
				outPort = a.Port
				decided = true
				break actions
			case OpToController:
				res.Disposition = DispPunted
				res.PuntedAt = PortRef{cur.ID, inPort}
				if h := cur.Hook(); h != nil {
					h.PacketIn(cur.ID, inPort, p)
				}
				return res, nil
			case OpDrop:
				res.Disposition = DispDropped
				return res, nil
			}
		}
		if !decided {
			// A rule with label ops but no output is a controller bug; the
			// physical behaviour is a drop.
			res.Disposition = DispDropped
			return res, nil
		}

		depth := p.LabelDepth()
		top, _ := p.TopLabel()
		p.Trace = append(p.Trace, Hop{
			Dev: cur.ID, InPort: inPort, OutPort: outPort,
			LabelDepth: depth, TopLabel: top,
		})

		port := cur.PortByID(outPort)
		if port == nil {
			res.Disposition = DispBlackholed
			return res, nil
		}
		// Middlebox ports have no link: the middlebox processes the packet
		// and hands it back to the same switch on the same port.
		if mb := n.MiddleboxAt(PortRef{cur.ID, outPort}); mb != nil {
			p.MiddleboxesVisited = append(p.MiddleboxesVisited, mb.Type)
			res.Latency += MiddleboxProcessingLatency
			inPort = outPort
			continue
		}
		if port.Radio != "" {
			res.Disposition = DispDelivered
			res.EgressPort = PortRef{cur.ID, outPort}
			return res, nil
		}
		if port.External {
			res.Disposition = DispEgressed
			res.EgressPort = PortRef{cur.ID, outPort}
			return res, nil
		}
		if port.Link == nil || !port.Link.Up() {
			res.Disposition = DispBlackholed
			return res, nil
		}
		far, ok := port.Link.Other(cur.ID)
		if !ok {
			res.Disposition = DispBlackholed
			return res, nil
		}

		// The packet crosses a physical link: this is where the label-depth
		// invariant is observable (§4.3).
		if depth > res.MaxLabelDepth {
			res.MaxLabelDepth = depth
		}
		res.Latency += port.Link.Latency
		res.Hops++

		next := n.Switch(far.Dev)
		if next == nil {
			res.Disposition = DispBlackholed
			return res, nil
		}
		cur = next
		inPort = far.Port
	}
}
