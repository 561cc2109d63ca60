package dataplane

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mustConnect(t *testing.T, n *Network, a, b DeviceID) *Link {
	t.Helper()
	l, err := n.Connect(a, b, 5*time.Millisecond, 1000)
	if err != nil {
		t.Fatalf("connect %s-%s: %v", a, b, err)
	}
	return l
}

// buildLine builds SW1 - SW2 - SW3 with an egress on SW3.
func buildLine(t *testing.T) (*Network, *EgressPoint) {
	t.Helper()
	n := NewNetwork()
	for _, id := range []DeviceID{"SW1", "SW2", "SW3"} {
		n.AddSwitch(id)
	}
	mustConnect(t, n, "SW1", "SW2")
	mustConnect(t, n, "SW2", "SW3")
	ep, err := n.AddEgress("E1", "SW3", "isp-1")
	if err != nil {
		t.Fatal(err)
	}
	return n, ep
}

func TestConnectAllocatesPorts(t *testing.T) {
	n := NewNetwork()
	n.AddSwitch("A")
	n.AddSwitch("B")
	l := mustConnect(t, n, "A", "B")
	if l.A.Port != 1 || l.B.Port != 1 {
		t.Fatalf("first link should use port 1 on both ends: %v", l)
	}
	l2 := mustConnect(t, n, "A", "B")
	if l2.A.Port != 2 || l2.B.Port != 2 {
		t.Fatalf("second link should use port 2: %v", l2)
	}
	if len(n.Switch("A").Ports()) != 2 {
		t.Fatalf("A ports = %d", len(n.Switch("A").Ports()))
	}
	if n.LinkAt(PortRef{"A", 1}) != l {
		t.Fatal("LinkAt lookup broken")
	}
}

func TestConnectUnknownSwitch(t *testing.T) {
	n := NewNetwork()
	n.AddSwitch("A")
	if _, err := n.Connect("A", "ZZZ", 0, 0); err == nil {
		t.Fatal("expected error for unknown switch")
	}
}

func TestDuplicateSwitchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate switch")
		}
	}()
	n := NewNetwork()
	n.AddSwitch("A")
	n.AddSwitch("A")
}

func TestForwardToEgress(t *testing.T) {
	n, ep := buildLine(t)
	// SW1: out port 1 (to SW2); SW2: in 1 from SW1, out 2 to SW3; SW3: out
	// egress port.
	n.Switch("SW1").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(1)}})
	n.Switch("SW2").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(2)}})
	n.Switch("SW3").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(ep.Port)}})

	p := &Packet{UE: "ue1", DstPrefix: "pfx"}
	res, err := n.Inject("SW1", PortAny, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != DispEgressed {
		t.Fatalf("disposition = %v", res.Disposition)
	}
	if res.Hops != 2 {
		t.Fatalf("hops = %d", res.Hops)
	}
	if res.Latency != 10*time.Millisecond {
		t.Fatalf("latency = %v", res.Latency)
	}
	if res.EgressPort.Dev != "SW3" {
		t.Fatalf("egress at %v", res.EgressPort)
	}
	path := p.Path()
	if len(path) != 3 || path[0] != "SW1" || path[2] != "SW3" {
		t.Fatalf("path = %v", path)
	}
}

// Traversals read a switch's table while installs and owner deletes churn
// it: each lookup must see a consistent table (run under -race). The
// churned rules outrank the forwarding rule but match another UE, so
// every traversal still egresses.
func TestInjectRacesTableChurn(t *testing.T) {
	n, ep := buildLine(t)
	n.Switch("SW1").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(1)}})
	n.Switch("SW2").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(2)}})
	n.Switch("SW3").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(ep.Port)}})
	sw := n.Switch("SW2").Table
	const rounds = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			owner := fmt.Sprintf("o%d", i%16)
			sw.Add(Rule{Priority: 2 + i%5, Owner: owner,
				Match:   Match{InPort: PortAny, UE: "other", QoS: -1},
				Actions: []Action{{Op: OpDrop}}})
			if i%3 == 0 {
				sw.RemoveByOwner(owner)
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		res, err := n.Inject("SW1", PortAny, &Packet{UE: "ue1"})
		if err != nil || res.Disposition != DispEgressed {
			t.Fatalf("traversal %d: %v %v", i, res.Disposition, err)
		}
	}
	wg.Wait()
}

func TestLabelSwapPath(t *testing.T) {
	n, ep := buildLine(t)
	// Classic label-switched path: SW1 classifies+pushes, SW2 swaps, SW3
	// pops and egresses.
	n.Switch("SW1").Table.Add(Rule{Priority: 5,
		Match:   Match{InPort: PortAny, MatchNoLabel: true, UE: "ue1", QoS: -1},
		Actions: []Action{Push(100), Output(1)}})
	n.Switch("SW2").Table.Add(Rule{Priority: 5,
		Match:   Match{InPort: PortAny, HasLabel: true, Label: 100, QoS: -1},
		Actions: []Action{Swap(200), Output(2)}})
	n.Switch("SW3").Table.Add(Rule{Priority: 5,
		Match:   Match{InPort: PortAny, HasLabel: true, Label: 200, QoS: -1},
		Actions: []Action{Pop(), Output(ep.Port)}})

	p := &Packet{UE: "ue1"}
	res, err := n.Inject("SW1", PortAny, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != DispEgressed {
		t.Fatalf("disposition = %v (packet %v)", res.Disposition, p)
	}
	if res.MaxLabelDepth != 1 {
		t.Fatalf("label depth on links = %d, want 1", res.MaxLabelDepth)
	}
	if p.LabelDepth() != 0 {
		t.Fatalf("packet should egress unlabeled, depth=%d", p.LabelDepth())
	}
}

func TestTableMissPunts(t *testing.T) {
	n, _ := buildLine(t)
	var punted bool
	n.Switch("SW1").SetHook(HookFuncs{
		OnPacketIn: func(sw DeviceID, in PortID, p *Packet) {
			punted = true
			if sw != "SW1" {
				t.Errorf("punt at %s", sw)
			}
		},
	})
	res, err := n.Inject("SW1", PortAny, &Packet{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != DispPunted || !punted {
		t.Fatalf("expected punt, got %v punted=%v", res.Disposition, punted)
	}
}

func TestTableMissDropWhenNotPunting(t *testing.T) {
	n, _ := buildLine(t)
	n.Switch("SW1").PuntMisses = false
	res, _ := n.Inject("SW1", PortAny, &Packet{})
	if res.Disposition != DispDropped {
		t.Fatalf("disposition = %v", res.Disposition)
	}
}

func TestForwardingLoopDetected(t *testing.T) {
	n := NewNetwork()
	n.AddSwitch("A")
	n.AddSwitch("B")
	mustConnect(t, n, "A", "B")
	n.Switch("A").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(1)}})
	n.Switch("B").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(1)}})
	res, _ := n.Inject("A", PortAny, &Packet{})
	if res.Disposition != DispLooped {
		t.Fatalf("disposition = %v", res.Disposition)
	}
}

func TestDownLinkBlackholes(t *testing.T) {
	n, _ := buildLine(t)
	n.Switch("SW1").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(1)}})
	l := n.LinkAt(PortRef{"SW1", 1})
	n.SetLinkState(l, false)
	res, _ := n.Inject("SW1", PortAny, &Packet{})
	if res.Disposition != DispBlackholed {
		t.Fatalf("disposition = %v", res.Disposition)
	}
}

func TestSetLinkStateNotifiesBothEnds(t *testing.T) {
	n, _ := buildLine(t)
	var events []DeviceID
	hook := func(sw DeviceID, port PortID, up bool) {
		if up {
			t.Errorf("expected down event")
		}
		events = append(events, sw)
	}
	n.Switch("SW1").SetHook(HookFuncs{OnPortStatus: hook})
	n.Switch("SW2").SetHook(HookFuncs{OnPortStatus: hook})
	n.SetLinkState(n.LinkAt(PortRef{"SW1", 1}), false)
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
}

func TestOutputToUnknownPortBlackholes(t *testing.T) {
	n, _ := buildLine(t)
	n.Switch("SW1").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(99)}})
	res, _ := n.Inject("SW1", PortAny, &Packet{})
	if res.Disposition != DispBlackholed {
		t.Fatalf("disposition = %v", res.Disposition)
	}
}

func TestRuleWithoutOutputDrops(t *testing.T) {
	n, _ := buildLine(t)
	n.Switch("SW1").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Push(1)}})
	res, _ := n.Inject("SW1", PortAny, &Packet{})
	if res.Disposition != DispDropped {
		t.Fatalf("disposition = %v", res.Disposition)
	}
}

func TestExplicitToControllerAction(t *testing.T) {
	n, _ := buildLine(t)
	n.Switch("SW1").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{{Op: OpToController}}})
	count := 0
	n.Switch("SW1").SetHook(HookFuncs{OnPacketIn: func(DeviceID, PortID, *Packet) { count++ }})
	res, _ := n.Inject("SW1", PortAny, &Packet{})
	if res.Disposition != DispPunted || count != 1 {
		t.Fatalf("disposition=%v punts=%d", res.Disposition, count)
	}
}

func TestInjectUnknownSwitch(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Inject("nope", PortAny, &Packet{}); err == nil {
		t.Fatal("expected ErrNoIngress")
	}
}

func TestMiddleboxBounce(t *testing.T) {
	n, ep := buildLine(t)
	mb := &Middlebox{ID: "FW1", Type: MBFirewall, Attach: PortRef{Dev: "SW2"}, Capacity: 100}
	if err := n.AttachMiddlebox(mb); err != nil {
		t.Fatal(err)
	}
	// SW1 -> SW2; SW2 sends fresh traffic through the firewall port, and
	// firewall-returned traffic (same in-port) onward to SW3.
	n.Switch("SW1").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(1)}})
	n.Switch("SW2").Table.Add(Rule{Priority: 5,
		Match:   Match{InPort: mb.Attach.Port, QoS: -1},
		Actions: []Action{Output(2)}})
	n.Switch("SW2").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(mb.Attach.Port)}})
	n.Switch("SW3").Table.Add(Rule{Priority: 1, Match: anyMatch(), Actions: []Action{Output(ep.Port)}})

	p := &Packet{UE: "u"}
	res, err := n.Inject("SW1", PortAny, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != DispEgressed {
		t.Fatalf("disposition = %v", res.Disposition)
	}
	if len(p.MiddleboxesVisited) != 1 || p.MiddleboxesVisited[0] != MBFirewall {
		t.Fatalf("middleboxes visited = %v", p.MiddleboxesVisited)
	}
	pol := ServicePolicy{Name: "fw", Chain: []MiddleboxType{MBFirewall}}
	if !pol.Satisfied(p.MiddleboxesVisited) {
		t.Fatal("policy should be satisfied")
	}
}

func TestServicePolicySubsequence(t *testing.T) {
	pol := ServicePolicy{Chain: []MiddleboxType{MBFirewall, MBDPI}}
	if !pol.Satisfied([]MiddleboxType{MBFirewall, MBCharging, MBDPI}) {
		t.Fatal("interleaved chain should satisfy")
	}
	if pol.Satisfied([]MiddleboxType{MBDPI, MBFirewall}) {
		t.Fatal("out-of-order chain must not satisfy")
	}
	if pol.Satisfied(nil) {
		t.Fatal("empty visit list must not satisfy nonempty chain")
	}
	if !(ServicePolicy{}).Satisfied(nil) {
		t.Fatal("empty chain is always satisfied")
	}
}

func TestLinkBandwidthReservation(t *testing.T) {
	l := NewLink(PortRef{"A", 1}, PortRef{"B", 1}, time.Millisecond, 100)
	if err := l.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if got := l.Available(); got != 40 {
		t.Fatalf("available = %v", got)
	}
	if err := l.Reserve(50); err == nil {
		t.Fatal("over-reservation should fail")
	}
	l.Release(60)
	if got := l.Available(); got != 100 {
		t.Fatalf("available after release = %v", got)
	}
	l.Release(1000) // over-release clamps
	if got := l.Available(); got != 100 {
		t.Fatalf("over-release should clamp: %v", got)
	}
	l.SetUp(false)
	if l.Available() != 0 {
		t.Fatal("down link has no available bandwidth")
	}
	if err := l.Reserve(1); err == nil {
		t.Fatal("reserving on a down link should fail")
	}
}

func TestLinkOther(t *testing.T) {
	l := NewLink(PortRef{"A", 1}, PortRef{"B", 2}, 0, 0)
	if far, ok := l.Other("A"); !ok || far.Dev != "B" {
		t.Fatalf("Other(A) = %v %v", far, ok)
	}
	if far, ok := l.Other("B"); !ok || far.Dev != "A" {
		t.Fatalf("Other(B) = %v %v", far, ok)
	}
	if _, ok := l.Other("C"); ok {
		t.Fatal("Other(C) should be false")
	}
}

func TestNeighbors(t *testing.T) {
	n, _ := buildLine(t)
	adj := n.Neighbors("SW2")
	if len(adj) != 2 {
		t.Fatalf("neighbors = %d", len(adj))
	}
	n.SetLinkState(n.LinkAt(PortRef{"SW2", 1}), false)
	if adj := n.Neighbors("SW2"); len(adj) != 1 {
		t.Fatalf("down links must not appear: %v", adj)
	}
	if n.Neighbors("missing") != nil {
		t.Fatal("unknown switch should have nil neighbors")
	}
}

func TestBSGroupBasics(t *testing.T) {
	g := NewBSGroup("G1", "ASW1")
	for i := 0; i < MaxGroupSize; i++ {
		if err := g.AddMember(DeviceID(rune('a' + i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddMember("overflow"); err == nil {
		t.Fatal("group overflow should fail")
	}
	if g.Size() != MaxGroupSize {
		t.Fatalf("size = %d", g.Size())
	}
}

func TestBSGroupCentroid(t *testing.T) {
	g := NewBSGroup("G", "A")
	g.AddMember("b1")
	g.AddMember("b2")
	locs := map[DeviceID]GeoPoint{"b1": {0, 0}, "b2": {10, 20}}
	c := g.Centroid(locs)
	if c.X != 5 || c.Y != 10 {
		t.Fatalf("centroid = %v", c)
	}
	if (NewBSGroup("E", "A")).Centroid(locs) != (GeoPoint{}) {
		t.Fatal("empty group centroid should be origin")
	}
}

func TestPacketLabelOps(t *testing.T) {
	p := &Packet{}
	if _, ok := p.PopLabel(); ok {
		t.Fatal("pop on empty should fail")
	}
	p.SwapLabel(5) // swap on empty pushes
	if l, _ := p.TopLabel(); l != 5 {
		t.Fatalf("top = %d", l)
	}
	p.PushLabel(6)
	if p.MaxLabelDepth != 2 {
		t.Fatalf("max depth = %d", p.MaxLabelDepth)
	}
	labels := p.Labels()
	if len(labels) != 2 || labels[0] != 5 || labels[1] != 6 {
		t.Fatalf("labels = %v", labels)
	}
}

// Property: label push/pop sequences behave as a stack.
func TestPacketStackPropertyQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		p := &Packet{}
		var model []Label
		for _, op := range ops {
			switch op % 3 {
			case 0:
				l := Label(op) + 1
				p.PushLabel(l)
				model = append(model, l)
			case 1:
				got, ok := p.PopLabel()
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if !ok || got != want {
						return false
					}
				}
			case 2:
				top, ok := p.TopLabel()
				if len(model) == 0 {
					if ok {
						return false
					}
				} else if !ok || top != model[len(model)-1] {
					return false
				}
			}
		}
		return p.LabelDepth() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGeoDist(t *testing.T) {
	if d := (GeoPoint{0, 0}).Dist(GeoPoint{3, 4}); d != 5 {
		t.Fatalf("dist = %v", d)
	}
}

func TestDeviceKindStrings(t *testing.T) {
	kinds := []DeviceKind{KindSwitch, KindGSwitch, KindBaseStation, KindGBS, KindMiddlebox, KindGMiddlebox, KindUnknown}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
}

func TestEgressRegistration(t *testing.T) {
	n, ep := buildLine(t)
	if eps := n.EgressPoints(); len(eps) != 1 || eps[0] != ep {
		t.Fatal("egress list")
	}
	sw := n.Switch("SW3")
	if !sw.IsEgress {
		t.Fatal("switch should be marked egress")
	}
	p := sw.PortByID(ep.Port)
	if p == nil || !p.External || p.ExternalDomain != "isp-1" {
		t.Fatalf("egress port misconfigured: %+v", p)
	}
	if _, err := n.AddEgress("EX", "nope", "d"); err == nil {
		t.Fatal("egress on unknown switch should fail")
	}
}

func TestMiddleboxTypesEnumeration(t *testing.T) {
	ts := MiddleboxTypes()
	if len(ts) != int(numMiddleboxTypes) {
		t.Fatalf("types = %d", len(ts))
	}
	seen := map[string]bool{}
	for _, mt := range ts {
		if seen[mt.String()] {
			t.Fatalf("duplicate middlebox name %s", mt)
		}
		seen[mt.String()] = true
	}
}
