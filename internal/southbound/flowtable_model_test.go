package southbound

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/dataplane"
)

// modelRule is one installed rule of the reference table.
type modelRule struct {
	rule dataplane.Rule
	seq  int
}

// flowModel is the naive reference a switch's flow table is checked
// against: a slice kept sorted by (priority desc, insertion asc), with
// every delete a filter over the whole slice.
type flowModel struct {
	rules []modelRule
	seq   int
}

func (m *flowModel) add(r dataplane.Rule) {
	i := sort.Search(len(m.rules), func(i int) bool { return m.rules[i].rule.Priority < r.Priority })
	m.rules = append(m.rules, modelRule{})
	copy(m.rules[i+1:], m.rules[i:])
	m.rules[i] = modelRule{rule: r, seq: m.seq}
	m.seq++
}

func (m *flowModel) removeIf(pred func(r *dataplane.Rule) bool) {
	kept := m.rules[:0]
	for _, mr := range m.rules {
		if !pred(&mr.rule) {
			kept = append(kept, mr)
		}
	}
	m.rules = kept
}

func (m *flowModel) lookup(in dataplane.PortID, p *dataplane.Packet) (dataplane.Rule, bool) {
	for _, mr := range m.rules {
		if mr.rule.Match.Matches(in, p) {
			return mr.rule, true
		}
	}
	return dataplane.Rule{}, false
}

// outPort returns a rule's output port, or 0 when it has none.
func outPort(r *dataplane.Rule) dataplane.PortID {
	for _, a := range r.Actions {
		if a.Op == dataplane.OpOutput {
			return a.Port
		}
	}
	return 0
}

// Seeded random sequences of installs, owner deletes, the delete commands
// ApplyFlowMod gives their meaning, the reconfiguration flush and ordered
// reads, each step compared against the naive reference — with slots freed
// by deletes reused by later installs. After every step each link's
// reservation must equal the demand of the live rules that output onto it.
func TestFlowTableMatchesModel(t *testing.T) {
	owners := []string{"o0", "o1", "o2", "o3", "o4", "o5"}
	// Best-effort owners never reserve bandwidth, so the table's own
	// RemoveByOwner, which releases nothing, keeps the links consistent.
	bestEffort := []string{"be0", "be1"}
	ues := []string{"", "u0", "u1", "u2"}
	for seed := int64(1); seed <= 20; seed++ {
		net := dataplane.NewNetwork()
		sw := net.AddSwitch("S")
		links := make(map[dataplane.PortID]*dataplane.Link)
		for _, peer := range []dataplane.DeviceID{"N1", "N2", "N3"} {
			net.AddSwitch(peer)
			l, err := net.Connect("S", peer, time.Millisecond, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			links[l.A.Port] = l
		}
		radio, err := net.AddRadioPort("S", "g")
		if err != nil {
			t.Fatal(err)
		}
		ports := []dataplane.PortID{1, 2, 3, radio.ID, 0}

		rng := rand.New(rand.NewSource(seed))
		var model flowModel
		tag := dataplane.Label(0)
		apply := func(fm FlowMod) {
			if err := ApplyFlowMod(net, "S", &fm); err != nil {
				t.Fatalf("seed %d: %v: %v", seed, fm.Command, err)
			}
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(100); {
			case op < 45:
				tag++
				owner := owners[rng.Intn(len(owners))]
				demand := float64(rng.Intn(4))
				if rng.Intn(4) == 0 {
					owner, demand = bestEffort[rng.Intn(len(bestEffort))], 0
				}
				m := dataplane.Match{InPort: dataplane.PortAny, UE: ues[rng.Intn(len(ues))], QoS: -1}
				if rng.Intn(2) == 0 {
					m.InPort = dataplane.PortID(1 + rng.Intn(3))
				}
				if rng.Intn(3) == 0 {
					m.QoS = rng.Intn(3)
				}
				// The pushed label is unique per install: it tells rules
				// with equal match, owner and version apart.
				acts := []dataplane.Action{dataplane.Push(tag), {Op: dataplane.OpDrop}}
				if p := ports[rng.Intn(len(ports))]; p != 0 {
					acts[1] = dataplane.Output(p)
				}
				r := dataplane.Rule{Priority: rng.Intn(7) - 2, Match: m, Actions: acts,
					Version: 1 + rng.Intn(4), Owner: owner, Demand: demand}
				apply(FlowMod{Command: FlowAdd, Rule: r})
				model.add(r)
			case op < 55:
				owner := owners[rng.Intn(len(owners))]
				apply(FlowMod{Command: FlowDeleteOwner, Owner: owner})
				model.removeIf(func(r *dataplane.Rule) bool { return r.Owner == owner })
			case op < 60:
				owner := bestEffort[rng.Intn(len(bestEffort))]
				sw.Table.RemoveByOwner(owner)
				model.removeIf(func(r *dataplane.Rule) bool { return r.Owner == owner })
			case op < 68:
				owner, v := owners[rng.Intn(len(owners))], 1+rng.Intn(4)
				apply(FlowMod{Command: FlowDeleteOwnerBefore, Owner: owner, Version: v})
				model.removeIf(func(r *dataplane.Rule) bool { return r.Owner == owner && r.Version < v })
			case op < 76:
				owner, v := owners[rng.Intn(len(owners))], 1+rng.Intn(4)
				apply(FlowMod{Command: FlowDeleteOwnerVersion, Owner: owner, Version: v})
				model.removeIf(func(r *dataplane.Rule) bool { return r.Owner == owner && r.Version == v })
			case op < 80:
				v := 1 + rng.Intn(4)
				apply(FlowMod{Command: FlowDeleteVersion, Version: v})
				model.removeIf(func(r *dataplane.Rule) bool { return r.Version == v })
			case op < 81:
				// The reconfiguration flush (§5.3.2) empties the switch.
				net.RemoveRulesIf("S", func(*dataplane.Rule) bool { return true })
				model.rules = model.rules[:0]
			case op < 93:
				in := dataplane.PortID(1 + rng.Intn(3))
				p := &dataplane.Packet{UE: ues[rng.Intn(len(ues))], QoS: rng.Intn(3)}
				got, ok := sw.Table.Lookup(in, p)
				want, wantOK := model.lookup(in, p)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Lookup(%d, %+v) = %v %v, want %v %v",
						seed, step, in, p, got, ok, want, wantOK)
				}
			default:
				got := sw.Table.Rules()
				if len(got) != len(model.rules) {
					t.Fatalf("seed %d step %d: Rules has %d, want %d", seed, step, len(got), len(model.rules))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], model.rules[i].rule) {
						t.Fatalf("seed %d step %d: Rules[%d] = %v, want %v", seed, step, i, got[i], model.rules[i].rule)
					}
				}
			}
			if got := sw.Table.Len(); got != len(model.rules) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, got, len(model.rules))
			}
			if err := checkReservations(links, model.rules); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// checkReservations compares each link's reserved bandwidth with the
// demand of the live rules that output onto it. Demands are whole Mbps,
// so the sums are exact.
func checkReservations(links map[dataplane.PortID]*dataplane.Link, live []modelRule) error {
	want := make(map[dataplane.PortID]float64)
	for i := range live {
		want[outPort(&live[i].rule)] += live[i].rule.Demand
	}
	for port, l := range links {
		if got := l.Bandwidth - l.Available(); got != want[port] {
			return fmt.Errorf("link on port %d reserves %v Mbps, live rules demand %v", port, got, want[port])
		}
	}
	return nil
}
