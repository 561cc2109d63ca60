package pathimpl

import (
	"testing"
	"testing/quick"

	"repro/internal/dataplane"
)

// labelOwner recovers the controller index that allocated a label.
func labelOwner(l dataplane.Label) int {
	return int(l>>labelSpaceBits) - 1
}

func TestAllocatorDisjointRanges(t *testing.T) {
	a := NewAllocator(0)
	b := NewAllocator(1)
	seen := map[dataplane.Label]bool{}
	for i := 0; i < 1000; i++ {
		la, lb := a.Next(), b.Next()
		if seen[la] || seen[lb] || la == lb {
			t.Fatal("label collision")
		}
		seen[la], seen[lb] = true, true
		if labelOwner(la) != 0 {
			t.Fatalf("owner of %d = %d", la, labelOwner(la))
		}
		if labelOwner(lb) != 1 {
			t.Fatalf("owner of %d = %d", lb, labelOwner(lb))
		}
	}
}

func TestAllocatorNeverNoLabel(t *testing.T) {
	a := NewAllocator(0)
	for i := 0; i < 100; i++ {
		if a.Next() == dataplane.NoLabel {
			t.Fatal("allocated NoLabel")
		}
	}
}

func TestAllocatorBadIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAllocator(-1)
}

// Property: labels from distinct allocators never collide, and labelOwner
// round-trips.
func TestAllocatorOwnerQuick(t *testing.T) {
	f := func(idx uint8, draws uint8) bool {
		a := NewAllocator(int(idx))
		for i := 0; i < int(draws%50)+1; i++ {
			if labelOwner(a.Next()) != int(idx) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransitRuleShape(t *testing.T) {
	r := TransitRule(500, 1, 2)
	if !r.Match.HasLabel || r.Match.Label != 500 || r.Match.InPort != 1 {
		t.Fatalf("match = %+v", r.Match)
	}
	if len(r.Actions) != 1 || r.Actions[0] != dataplane.Output(2) {
		t.Fatalf("actions = %v", r.Actions)
	}
}

// applyRule runs a rule's actions against a packet and returns the output
// port, mimicking the dataplane engine for shape checks.
func applyRule(r dataplane.Rule, p *dataplane.Packet) dataplane.PortID {
	for _, a := range r.Actions {
		switch a.Op {
		case dataplane.OpPushLabel:
			p.PushLabel(a.Label)
		case dataplane.OpPopLabel:
			p.PopLabel()
		case dataplane.OpSwapLabel:
			p.SwapLabel(a.Label)
		case dataplane.OpOutput:
			return a.Port
		}
	}
	return -1
}

func TestSwapModeKeepsDepthOne(t *testing.T) {
	parent, local := dataplane.Label(1<<20|1), dataplane.Label(2<<20|1)
	p := &dataplane.Packet{}
	p.PushLabel(parent)

	in := IngressRule(ModeSwap, parent, local, 1, 2)
	if !in.Match.Matches(1, p) {
		t.Fatal("ingress rule must match parent-labeled packet")
	}
	applyRule(in, p)
	if p.LabelDepth() != 1 {
		t.Fatalf("swap ingress depth = %d", p.LabelDepth())
	}
	if l, _ := p.TopLabel(); l != local {
		t.Fatalf("top = %d", l)
	}

	// Region egress swaps the parent's label back (core's egress shape).
	applyRule(dataplane.Rule{Actions: []dataplane.Action{dataplane.Swap(parent), dataplane.Output(4)}}, p)
	if p.LabelDepth() != 1 {
		t.Fatalf("swap egress depth = %d", p.LabelDepth())
	}
	if l, _ := p.TopLabel(); l != parent {
		t.Fatalf("parent label not restored: %d", l)
	}
	if p.MaxLabelDepth != 1 {
		t.Fatalf("swap mode max depth = %d, must stay 1", p.MaxLabelDepth)
	}
}

func TestStackModeGrowsDepth(t *testing.T) {
	parent, local := dataplane.Label(1<<20|1), dataplane.Label(2<<20|1)
	p := &dataplane.Packet{}
	p.PushLabel(parent)

	in := IngressRule(ModeStack, parent, local, 1, 2)
	applyRule(in, p)
	if p.LabelDepth() != 2 {
		t.Fatalf("stack ingress depth = %d", p.LabelDepth())
	}
	// Region egress pops the local label (core's egress shape).
	applyRule(dataplane.Rule{Actions: []dataplane.Action{dataplane.Pop(), dataplane.Output(4)}}, p)
	if p.LabelDepth() != 1 {
		t.Fatalf("stack egress depth = %d", p.LabelDepth())
	}
	if l, _ := p.TopLabel(); l != parent {
		t.Fatalf("parent label must re-expose: %d", l)
	}
	if p.MaxLabelDepth != 2 {
		t.Fatalf("stack mode max depth = %d, want 2", p.MaxLabelDepth)
	}
}

func TestVersionCounter(t *testing.T) {
	var c VersionCounter
	if c.Next() != 1 || c.Next() != 2 {
		t.Fatal("sequence")
	}
}

func TestModeString(t *testing.T) {
	if ModeSwap.String() != "swap" || ModeStack.String() != "stack" {
		t.Fatal("mode strings")
	}
}
