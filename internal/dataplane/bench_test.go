package dataplane

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkFlowTableLookup measures a hit in a 256-rule table (a loaded
// core switch).
func BenchmarkFlowTableLookup(b *testing.B) {
	ft := NewFlowTable()
	for i := 0; i < 256; i++ {
		ft.Add(Rule{
			Priority: i % 7,
			Match:    Match{InPort: PortAny, HasLabel: true, Label: Label(i + 1), QoS: -1},
			Actions:  []Action{Output(PortID(i%8 + 1))},
		})
	}
	p := &Packet{}
	p.PushLabel(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ft.Lookup(3, p); !ok {
			b.Fatal("miss")
		}
	}
}

// perUERules returns n per-UE classification rules, one owner each: the
// shape bearer setup leaves on an access switch.
func perUERules(n int) []Rule {
	rules := make([]Rule, n)
	for i := range rules {
		ue := fmt.Sprintf("ue%07d", i)
		rules[i] = Rule{Priority: 10, Owner: ue, Version: 1,
			Match:   Match{InPort: 1, UE: ue, QoS: -1},
			Actions: []Action{Output(2)}}
	}
	return rules
}

// BenchmarkFlowTableChurn measures one Add plus one RemoveByOwner on a
// table holding 100k per-UE rules; the pair leaves the table at its size.
func BenchmarkFlowTableChurn(b *testing.B) {
	const size = 100_000
	rules := perUERules(2 * size)
	ft := NewFlowTable()
	for _, r := range rules[:size] {
		ft.Add(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &rules[size+i%size]
		ft.Add(*r)
		ft.RemoveByOwner(r.Owner)
	}
}

// BenchmarkTraversal measures one packet crossing a 32-switch
// label-switched path.
func BenchmarkTraversal(b *testing.B) {
	const n = 32
	net := NewNetwork()
	ids := make([]DeviceID, n)
	for i := range ids {
		ids[i] = DeviceID(fmt.Sprintf("SW%02d", i))
		net.AddSwitch(ids[i])
	}
	for i := 0; i+1 < n; i++ {
		if _, err := net.Connect(ids[i], ids[i+1], time.Millisecond, 1000); err != nil {
			b.Fatal(err)
		}
	}
	rp, _ := net.AddRadioPort(ids[0], "g")
	ep, _ := net.AddEgress("E", ids[n-1], "isp")
	net.Switch(ids[0]).Table.Add(Rule{Priority: 100,
		Match:   Match{InPort: rp.ID, MatchNoLabel: true, UE: "u", QoS: -1},
		Actions: []Action{Push(9), Output(1)}})
	for i := 1; i+1 < n; i++ {
		net.Switch(ids[i]).Table.Add(Rule{Priority: 50,
			Match:   Match{InPort: 1, HasLabel: true, Label: 9, QoS: -1},
			Actions: []Action{Output(2)}})
	}
	net.Switch(ids[n-1]).Table.Add(Rule{Priority: 50,
		Match:   Match{InPort: 1, HasLabel: true, Label: 9, QoS: -1},
		Actions: []Action{Pop(), Output(ep.Port)}})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := &Packet{UE: "u"}
		res, err := net.Inject(ids[0], rp.ID, pkt)
		if err != nil || res.Disposition != DispEgressed {
			b.Fatalf("traversal failed: %v %v", res.Disposition, err)
		}
	}
}

// BenchmarkPacketLabelOps measures raw label stack manipulation.
func BenchmarkPacketLabelOps(b *testing.B) {
	p := &Packet{}
	for i := 0; i < b.N; i++ {
		p.PushLabel(Label(i + 1))
		p.SwapLabel(Label(i + 2))
		p.PopLabel()
	}
}
