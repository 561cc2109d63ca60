package dataplane

import (
	"fmt"
	"strings"
)

// Packet is a simulated data-plane packet. It carries the classification
// fields the SoftMoW access switches match on (UE, source, destination
// prefix, QoS class) and a label stack manipulated by flow-rule actions.
//
// With recursive label swapping (§4.3) the stack depth never exceeds one on
// any physical link; with the label-stacking baseline it grows with the
// hierarchy depth. The traversal engine records the observed maximum.
type Packet struct {
	// UE identifies the subscriber flow (used by access-switch
	// classification rules).
	UE string
	// SrcIP and DstPrefix are opaque address tokens; the evaluation treats
	// Internet destinations as prefix identifiers (11590 of them in Fig. 8).
	SrcIP     string
	DstPrefix string
	// QoS is the bearer QoS class identifier.
	QoS int

	labels []Label

	// Trace accumulates the hops taken, for assertions and debugging.
	Trace []Hop

	// MiddleboxesVisited records the middlebox types traversed, in order,
	// so service-policy poset compliance can be verified.
	MiddleboxesVisited []MiddleboxType

	// MaxLabelDepth is the maximum label-stack depth observed on any link.
	MaxLabelDepth int
}

// Hop records one forwarding step.
type Hop struct {
	Dev     DeviceID
	InPort  PortID
	OutPort PortID
	// LabelDepth is the stack depth when the packet left Dev.
	LabelDepth int
	// TopLabel is the top of stack when leaving Dev (NoLabel if empty).
	TopLabel Label
}

// PushLabel pushes l onto the packet's label stack.
func (p *Packet) PushLabel(l Label) {
	p.labels = append(p.labels, l)
	if len(p.labels) > p.MaxLabelDepth {
		p.MaxLabelDepth = len(p.labels)
	}
}

// PopLabel removes and returns the top label. ok is false on an empty
// stack (the packet is left unchanged).
func (p *Packet) PopLabel() (l Label, ok bool) {
	if len(p.labels) == 0 {
		return NoLabel, false
	}
	l = p.labels[len(p.labels)-1]
	p.labels = p.labels[:len(p.labels)-1]
	return l, true
}

// SwapLabel replaces the top label with l; if the stack is empty it pushes.
func (p *Packet) SwapLabel(l Label) {
	if len(p.labels) == 0 {
		p.PushLabel(l)
		return
	}
	p.labels[len(p.labels)-1] = l
}

// TopLabel returns the top of stack without modifying it.
func (p *Packet) TopLabel() (Label, bool) {
	if len(p.labels) == 0 {
		return NoLabel, false
	}
	return p.labels[len(p.labels)-1], true
}

// LabelDepth returns the current label-stack depth.
func (p *Packet) LabelDepth() int { return len(p.labels) }

// Labels returns a copy of the label stack, bottom first.
func (p *Packet) Labels() []Label {
	return append([]Label(nil), p.labels...)
}

// Path returns the device IDs visited, in order.
func (p *Packet) Path() []DeviceID {
	ids := make([]DeviceID, len(p.Trace))
	for i, h := range p.Trace {
		ids[i] = h.Dev
	}
	return ids
}

// String implements fmt.Stringer for debugging output.
func (p *Packet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pkt ue=%s dst=%s labels=%v path=", p.UE, p.DstPrefix, p.labels)
	for i, h := range p.Trace {
		if i > 0 {
			b.WriteString("->")
		}
		b.WriteString(string(h.Dev))
	}
	return b.String()
}
