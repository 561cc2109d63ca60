// Package discovery implements the building blocks of SoftMoW's recursive
// inter-G-switch link discovery protocol (§4.1): the stack-carrying
// discovery frame exchanged through the controller hierarchy, and the
// queueing model used to measure per-controller convergence time against a
// flat single-controller LLDP baseline (Fig. 10).
//
// The protocol logic itself — who pushes, translates, pops — lives in the
// controller (internal/core); this package keeps the frame mechanics and
// timing analysis independently testable.
package discovery

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dataplane"
)

// StackEntry is one hierarchy hop recorded in a discovery frame: "(Controller
// ID, G-switch ID, G-switch port)" (§4.1.2).
type StackEntry struct {
	Controller string
	Device     dataplane.DeviceID
	Port       dataplane.PortID
}

// String implements fmt.Stringer.
func (e StackEntry) String() string {
	return fmt.Sprintf("(%s,%s,%d)", e.Controller, e.Device, e.Port)
}

// LinkMeta carries the traversed physical link's properties, filled by the
// emitting leaf controller (§4.1.2: "the meta data field carries the
// properties of the traversed physical link").
type LinkMeta struct {
	Latency   time.Duration
	Bandwidth float64
}

// Frame is a link-discovery message. The zero value is an empty frame.
type Frame struct {
	Stack []StackEntry
	Meta  LinkMeta
	// Receive records where the frame re-entered the control plane: the
	// (device, port) as seen by the controller currently holding it. It is
	// rewritten by each controller on the return path as it translates to
	// its own abstraction level.
	Receive StackEntry
}

// FillLinkMeta implements the southbound LinkMetaFiller contract: the
// transport records the crossed link's properties into the frame.
func (f *Frame) FillLinkMeta(latency time.Duration, bandwidthMbps float64) {
	f.Meta = LinkMeta{Latency: latency, Bandwidth: bandwidthMbps}
}

// Push appends a hierarchy hop on the origination path.
func (f *Frame) Push(e StackEntry) {
	f.Stack = append(f.Stack, e)
}

// Pop removes and returns the top entry; ok is false on an empty stack.
func (f *Frame) Pop() (StackEntry, bool) {
	if len(f.Stack) == 0 {
		return StackEntry{}, false
	}
	e := f.Stack[len(f.Stack)-1]
	f.Stack = f.Stack[:len(f.Stack)-1]
	return e, true
}

// Depth reports the stack depth.
func (f *Frame) Depth() int { return len(f.Stack) }

// String implements fmt.Stringer.
func (f *Frame) String() string {
	var b strings.Builder
	b.WriteString("frame[")
	for i, e := range f.Stack {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(e.String())
	}
	fmt.Fprintf(&b, "] recv=%s", f.Receive)
	return b.String()
}
