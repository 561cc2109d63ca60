package core

import (
	"slices"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/pathimpl"
	"repro/internal/routing"
)

// pathRules builds one path's rules under ctx, in the leaf's current mode,
// and returns them per device.
func pathRules(t *testing.T, c *Controller, ctx ruleCtx, path *routing.Path, version int) map[dataplane.DeviceID][]dataplane.Rule {
	t.Helper()
	b := newRuleBatch()
	if err := c.appendPathRules(b, ctx, path, version); err != nil {
		t.Fatal(err)
	}
	out := make(map[dataplane.DeviceID][]dataplane.Rule)
	for _, e := range b.devs {
		if e.many != nil {
			out[e.dev] = e.many
		} else {
			out[e.dev] = e.one[:]
		}
	}
	return out
}

// runActions applies a rule's label actions to p and returns the output
// port.
func runActions(r dataplane.Rule, p *dataplane.Packet) dataplane.PortID {
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

// TestClassifyRuleShape checks the classification rule the controller
// installs at a path's access switch: it matches unlabeled packets of the
// flow on the path's ingress port, at priority 100+version so a rerouted
// path's classifier overrides the old one, and pushes the path's label
// (after the ancestors' labels in stack mode).
func TestClassifyRuleShape(t *testing.T) {
	f := buildRerouteFixture(t)
	path := f.pathVia(t, routing.MinHops)
	first := path.Segments()[0]
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	for _, tc := range []struct {
		mode  pathimpl.Mode
		chain []dataplane.Label
		want  []dataplane.ActionOp
	}{
		{pathimpl.ModeSwap, nil, []dataplane.ActionOp{dataplane.OpPushLabel, dataplane.OpOutput}},
		{pathimpl.ModeStack, []dataplane.Label{5}, []dataplane.ActionOp{dataplane.OpPushLabel, dataplane.OpPushLabel, dataplane.OpOutput}},
	} {
		f.leaf.Mode = tc.mode
		rules := pathRules(t, f.leaf, ruleCtx{kind: kindClassify, match: match, pushChain: tc.chain}, path, 7)[first.Dev]
		if len(rules) != 1 {
			t.Fatalf("%v: %d rules on the access switch, want 1", tc.mode, len(rules))
		}
		r := rules[0]
		if r.Priority != 107 {
			t.Fatalf("%v: priority %d, want 100+version", tc.mode, r.Priority)
		}
		if !r.Match.MatchNoLabel || r.Match.HasLabel || r.Match.InPort != first.InPort || r.Match.UE != "u1" {
			t.Fatalf("%v: match = %+v", tc.mode, r.Match)
		}
		var ops []dataplane.ActionOp
		for _, a := range r.Actions {
			ops = append(ops, a.Op)
		}
		if !slices.Equal(ops, tc.want) || r.Actions[len(r.Actions)-1].Port != first.OutPort {
			t.Fatalf("%v: actions = %v", tc.mode, r.Actions)
		}
		if tc.chain != nil && r.Actions[0].Label != tc.chain[0] {
			t.Fatalf("stack classify must push the ancestors' labels first: %v", r.Actions)
		}
	}
}

// TestTerminalRulePopsAndDelivers checks the path-end rule of a region
// that terminates its parent's path: it pops every label the packet
// carries — one in swap mode, the local label plus parentPops ancestor
// labels in stack mode — and delivers out the path's last port.
func TestTerminalRulePopsAndDelivers(t *testing.T) {
	f := buildRerouteFixture(t)
	path := f.pathVia(t, routing.MinHops)
	segs := path.Segments()
	last := segs[len(segs)-1]
	for _, tc := range []struct {
		mode pathimpl.Mode
		pops int // ancestor labels the packet carries in stack mode, labelIn on top
	}{{pathimpl.ModeSwap, 0}, {pathimpl.ModeStack, 2}} {
		f.leaf.Mode = tc.mode
		rules := pathRules(t, f.leaf, ruleCtx{kind: kindTerminal, labelIn: 9, parentPops: tc.pops}, path, 1)
		ingress := rules[segs[0].Dev][0]
		egress := rules[last.Dev][0]
		p := &dataplane.Packet{}
		for i := 1; i < tc.pops; i++ {
			p.PushLabel(dataplane.Label(100 + i))
		}
		p.PushLabel(9)
		if !ingress.Match.Matches(segs[0].InPort, p) {
			t.Fatalf("%v: ingress %+v does not match the parent-labeled packet", tc.mode, ingress.Match)
		}
		runActions(ingress, p)
		if !egress.Match.Matches(last.InPort, p) {
			t.Fatalf("%v: terminal %+v does not match the packet ingress labeled", tc.mode, egress.Match)
		}
		if port := runActions(egress, p); port != last.OutPort {
			t.Fatalf("%v: out port %d, want %d", tc.mode, port, last.OutPort)
		}
		if p.LabelDepth() != 0 {
			t.Fatalf("%v: terminal rule left %d label(s)", tc.mode, p.LabelDepth())
		}
	}
}
