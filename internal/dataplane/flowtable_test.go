package dataplane

import (
	"testing"
	"testing/quick"
)

// anyMatch returns a Match that matches every packet.
func anyMatch() Match { return Match{InPort: PortAny, QoS: -1} }

func TestMatchWildcards(t *testing.T) {
	p := &Packet{UE: "ue1", SrcIP: "s", DstPrefix: "d", QoS: 3}
	if !anyMatch().Matches(7, p) {
		t.Fatal("anyMatch should match everything")
	}
	m := Match{InPort: 7, UE: "ue1", DstPrefix: "d", QoS: 3}
	if !m.Matches(7, p) {
		t.Fatal("exact match failed")
	}
	if m.Matches(8, p) {
		t.Fatal("in-port mismatch should fail")
	}
	if (Match{InPort: PortAny, UE: "other", QoS: -1}).Matches(7, p) {
		t.Fatal("UE mismatch should fail")
	}
	if (Match{InPort: PortAny, QoS: 9}).Matches(7, p) {
		t.Fatal("QoS mismatch should fail")
	}
}

func TestMatchLabels(t *testing.T) {
	p := &Packet{QoS: -0} // no labels yet
	noLabel := Match{InPort: PortAny, MatchNoLabel: true, QoS: -1}
	if !noLabel.Matches(1, p) {
		t.Fatal("MatchNoLabel should match an unlabeled packet")
	}
	p.PushLabel(42)
	if noLabel.Matches(1, p) {
		t.Fatal("MatchNoLabel must not match a labeled packet")
	}
	withLabel := Match{InPort: PortAny, HasLabel: true, Label: 42, QoS: -1}
	if !withLabel.Matches(1, p) {
		t.Fatal("label match failed")
	}
	p.SwapLabel(43)
	if withLabel.Matches(1, p) {
		t.Fatal("stale label matched")
	}
}

func TestMatchTopOfStackOnly(t *testing.T) {
	p := &Packet{}
	p.PushLabel(1)
	p.PushLabel(2)
	m := Match{InPort: PortAny, HasLabel: true, Label: 1, QoS: -1}
	if m.Matches(1, p) {
		t.Fatal("label match must consider top of stack only")
	}
}

func TestFlowTablePriorityAndTies(t *testing.T) {
	ft := NewFlowTable()
	ft.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{{Op: OpDrop}}, Owner: "low"})
	ft.Add(Rule{Priority: 10, Match: anyMatch(), Actions: []Action{Output(1)}, Owner: "hiA"})
	ft.Add(Rule{Priority: 10, Match: anyMatch(), Actions: []Action{Output(2)}, Owner: "hiB"})
	r, ok := ft.Lookup(1, &Packet{})
	if !ok || r.Owner != "hiA" {
		t.Fatalf("expected first-inserted high-priority rule, got %v", r)
	}
}

func TestFlowTableMiss(t *testing.T) {
	ft := NewFlowTable()
	ft.Add(Rule{Priority: 5, Match: Match{InPort: 3, QoS: -1}, Actions: []Action{Output(1)}})
	if r, ok := ft.Lookup(9, &Packet{}); ok {
		t.Fatalf("expected miss, got %v", r)
	}
	hits, misses := ft.Stats()
	if hits != 0 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestFlowTableRemove(t *testing.T) {
	ft := NewFlowTable()
	ft.Add(Rule{Priority: 1, Match: anyMatch(), Owner: "a", Version: 1})
	ft.Add(Rule{Priority: 1, Match: anyMatch(), Owner: "b", Version: 1})
	ft.Add(Rule{Priority: 1, Match: anyMatch(), Owner: "a", Version: 2})
	if n := ft.RemoveByOwner("a"); n != 2 {
		t.Fatalf("removed %d", n)
	}
	if ft.Len() != 1 {
		t.Fatalf("len = %d", ft.Len())
	}
	if n := ft.RemoveIf(func(r *Rule) bool { return r.Version == 1 }, nil); n != 1 {
		t.Fatalf("removed version: %d", n)
	}
	if ft.Len() != 0 {
		t.Fatalf("len = %d after removing the last rule", ft.Len())
	}
}

func TestFlowTableAddCopiesRule(t *testing.T) {
	ft := NewFlowTable()
	r := Rule{Priority: 1, Match: anyMatch(), Owner: "x"}
	ft.Add(r)
	r.Owner = "mutated"
	if got := ft.Rules()[0].Owner; got != "x" {
		t.Fatalf("table rule aliases caller's value: %s", got)
	}
}

// A warmed table reuses its freed slots, ordered view and owner map: a
// steady-state install and owner delete allocate nothing.
func TestFlowTableChurnAllocs(t *testing.T) {
	const size = 1000
	rules := perUERules(2 * size)
	ft := NewFlowTable()
	for _, r := range rules[:size] {
		ft.Add(r)
	}
	i := 0
	churn := func() {
		r := &rules[size+i%size]
		ft.Add(*r)
		ft.RemoveByOwner(r.Owner)
		i++
	}
	for k := 0; k < 4*size; k++ {
		churn()
	}
	if allocs := testing.AllocsPerRun(2*size, churn); allocs != 0 {
		t.Fatalf("Add + RemoveByOwner allocates %v times per pair, want 0", allocs)
	}
	if ft.Len() != size {
		t.Fatalf("len = %d, want %d", ft.Len(), size)
	}
}

// Property: for any rule set, Lookup returns a rule whose priority is >= all
// other matching rules' priorities.
func TestLookupMaxPriorityQuick(t *testing.T) {
	type ruleSpec struct {
		Priority uint8
		InPort   uint8
	}
	f := func(specs []ruleSpec, probe uint8) bool {
		ft := NewFlowTable()
		for _, s := range specs {
			ft.Add(Rule{
				Priority: int(s.Priority),
				Match:    Match{InPort: PortID(s.InPort % 4), QoS: -1},
				Actions:  []Action{{Op: OpDrop}},
			})
		}
		p := &Packet{}
		in := PortID(probe % 4)
		got, ok := ft.Lookup(in, p)
		best := -1
		for _, r := range ft.Rules() {
			if r.Match.Matches(in, p) && r.Priority > best {
				best = r.Priority
			}
		}
		if best == -1 {
			return !ok
		}
		return ok && got.Priority == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestActionStrings(t *testing.T) {
	cases := map[string]Action{
		"output:3": Output(3),
		"push:9":   Push(9),
		"pop":      Pop(),
		"swap:4":   Swap(4),
		"drop":     Action{Op: OpDrop},
	}
	for want, a := range cases {
		if a.String() != want {
			t.Errorf("%v.String() = %q, want %q", a.Op, a.String(), want)
		}
	}
	if (Action{Op: OpToController}).String() != "to-controller" {
		t.Error("to-controller string")
	}
}

func TestMatchString(t *testing.T) {
	if anyMatch().String() != "any" {
		t.Fatalf("anyMatch string = %q", anyMatch().String())
	}
	m := Match{InPort: 2, HasLabel: true, Label: 7, UE: "u", QoS: 1}
	s := m.String()
	for _, want := range []string{"in=2", "label=7", "ue=u", "qos=1"} {
		if !contains(s, want) {
			t.Errorf("match string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
