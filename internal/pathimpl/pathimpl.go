// Package pathimpl provides the label machinery behind SoftMoW's global
// path implementation (§4.3): per-controller label allocation from disjoint
// ranges, the flow-rule shapes used at transit and ingress points, and both
// translation strategies — the scalable recursive label *swapping* SoftMoW
// proposes (≤ 1 label per packet on any physical link) and the
// high-overhead label *stacking* baseline it compares against (k labels for
// a level-k path).
//
// The recursive translation driver that applies these rules through the
// controller hierarchy lives in internal/core, which also builds the
// classification and egress rules whose shape depends on the path's label
// context.
package pathimpl

import (
	"fmt"
	"sync"

	"repro/internal/dataplane"
)

// Mode selects the translation strategy.
type Mode int

const (
	// ModeSwap is recursive label swapping (§4.3, SoftMoW's mechanism).
	ModeSwap Mode = iota
	// ModeStack is the label-stacking baseline (§4.3, "high-overhead
	// label stacking").
	ModeStack
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeStack {
		return "stack"
	}
	return "swap"
}

// labelSpaceBits is the per-controller label space width. Each controller
// owns a disjoint 2^20 range so any label's owner is recoverable.
const labelSpaceBits = 20

// Allocator hands out labels from one controller's range.
type Allocator struct {
	mu   sync.Mutex
	base dataplane.Label
	next dataplane.Label
}

// NewAllocator creates an allocator for the controller with the given
// global index (0-based). Index range is bounded by the 32-bit label width.
func NewAllocator(controllerIndex int) *Allocator {
	if controllerIndex < 0 || controllerIndex >= (1<<(32-labelSpaceBits))-1 {
		panic(fmt.Sprintf("pathimpl: controller index %d out of label space", controllerIndex))
	}
	base := dataplane.Label(controllerIndex+1) << labelSpaceBits
	return &Allocator{base: base, next: base + 1}
}

// Next allocates a fresh label.
func (a *Allocator) Next() dataplane.Label {
	a.mu.Lock()
	defer a.mu.Unlock()
	l := a.next
	a.next++
	if a.next-a.base >= 1<<labelSpaceBits {
		panic("pathimpl: label space exhausted")
	}
	return l
}

// TransitRule forwards labeled traffic along a path segment.
func TransitRule(label dataplane.Label, in dataplane.PortID, out dataplane.PortID, owner string, version int) dataplane.Rule {
	return dataplane.Rule{
		Priority: 50,
		Match:    dataplane.Match{InPort: in, HasLabel: true, Label: label, QoS: -1},
		Actions:  []dataplane.Action{dataplane.Output(out)},
		Owner:    owner,
		Version:  version,
	}
}

// IngressRule builds the region-ingress rule translating a parent label to
// a local label. In swap mode the parent label is popped and replaced
// (packet keeps depth 1); in stack mode the local label stacks on top.
func IngressRule(mode Mode, parent, local dataplane.Label, in dataplane.PortID, out dataplane.PortID, owner string, version int) dataplane.Rule {
	var actions []dataplane.Action
	if mode == ModeSwap {
		actions = []dataplane.Action{dataplane.Swap(local), dataplane.Output(out)}
	} else {
		actions = []dataplane.Action{dataplane.Push(local), dataplane.Output(out)}
	}
	return dataplane.Rule{
		Priority: 60,
		Match:    dataplane.Match{InPort: in, HasLabel: true, Label: parent, QoS: -1},
		Actions:  actions,
		Owner:    owner,
		Version:  version,
	}
}

// VersionCounter issues monotonically increasing path-update versions for
// consistent updates (§6: "the new path and packets are assigned a new
// version number").
type VersionCounter struct {
	mu sync.Mutex
	v  int
}

// Next returns the next version (starting at 1).
func (c *VersionCounter) Next() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.v++
	return c.v
}
