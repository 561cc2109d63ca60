package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/reca"
	"repro/internal/routing"
)

// TestLinkFlapFixpoint flaps the two diamond arms alternately: each flap
// fails the arm currently carrying the path, forcing a repair onto the
// other arm, then restores the link. After every cycle the controller must
// return to its pre-flap fixpoint — same active path count, same NIB link
// records (all up again), same installed-rule count — and traffic must
// still egress with at most one label per packet.
func TestLinkFlapFixpoint(t *testing.T) {
	f := buildRerouteFixture(t)
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	if _, err := f.leaf.SetupPath(match, f.pathVia(t, routing.MinHops)); err != nil {
		t.Fatal(err)
	}

	countRules := func() int {
		total := 0
		for _, sw := range f.net.Switches() {
			total += sw.Table.Len()
		}
		return total
	}
	findLink := func(a, b dataplane.DeviceID) *dataplane.Link {
		for _, l := range f.net.Links() {
			if (l.A.Dev == a && l.B.Dev == b) || (l.A.Dev == b && l.B.Dev == a) {
				return l
			}
		}
		t.Fatalf("no %s-%s link", a, b)
		return nil
	}

	wantPaths := f.leaf.NumPaths()
	wantLinks := f.leaf.NIB.NumLinks()
	wantRules := countRules()

	arms := []*dataplane.Link{findLink("S1", "S2"), findLink("S1", "S3")}
	const flaps = 6
	for i := 0; i < flaps; i++ {
		l := arms[i%2] // always the arm the path currently uses
		f.net.SetLinkState(l, false)
		ref := l.A
		if ref.Dev != "S1" {
			ref = l.B
		}
		repaired, failed := f.leaf.HandleLinkFailure(ref.Dev, ref.Port)
		if len(failed) != 0 || len(repaired) != 1 {
			t.Fatalf("flap %d: repaired=%v failed=%v", i, repaired, failed)
		}
		f.net.SetLinkState(l, true)

		if got := f.leaf.NumPaths(); got != wantPaths {
			t.Fatalf("flap %d: paths=%d want %d", i, got, wantPaths)
		}
		if got := f.leaf.NIB.NumLinks(); got != wantLinks {
			t.Fatalf("flap %d: NIB links=%d want %d", i, got, wantLinks)
		}
		if got := f.leaf.NIB.NumUpLinks(); got != wantLinks {
			t.Fatalf("flap %d: up links=%d want %d (restore lost)", i, got, wantLinks)
		}
		if got := countRules(); got != wantRules {
			t.Fatalf("flap %d: rules=%d want %d", i, got, wantRules)
		}
		res := f.drive(t)
		if res.Disposition != dataplane.DispEgressed {
			t.Fatalf("flap %d: disposition %v", i, res.Disposition)
		}
		if res.MaxLabelDepth > 1 {
			t.Fatalf("flap %d: label depth %d", i, res.MaxLabelDepth)
		}
	}
}

// TestTranslateRuleRollbackOnInstallFault drives a classification fan-out
// (an internal G-BS with two constituent attachments) into an injected
// install failure at the second source: the first source's already
// installed rules must be rolled back so no rule under the parent's
// owner/version survives.
func TestTranslateRuleRollbackOnInstallFault(t *testing.T) {
	net := dataplane.NewNetwork()
	for _, id := range []dataplane.DeviceID{"A1", "A2", "E"} {
		net.AddSwitch(id)
	}
	for _, pair := range [][2]dataplane.DeviceID{{"A1", "E"}, {"A2", "E"}} {
		if _, err := net.Connect(pair[0], pair[1], time.Millisecond, 1000); err != nil {
			t.Fatal(err)
		}
	}
	rp1, _ := net.AddRadioPort("A1", "g1")
	rp2, _ := net.AddRadioPort("A2", "g2")
	if _, err := net.AddEgress("E1", "E", "isp"); err != nil {
		t.Fatal(err)
	}
	h, err := NewTwoLevel(net, "root", []LeafSpec{{
		ID:       "L1",
		Switches: []dataplane.DeviceID{"A1", "A2", "E"},
		Radios: []reca.RadioAttachment{
			{ID: "g1", Attach: dataplane.PortRef{Dev: "A1", Port: rp1.ID}, Border: false},
			{ID: "g2", Attach: dataplane.PortRef{Dev: "A2", Port: rp2.ID}, Border: false},
		},
		BSGroup: map[dataplane.DeviceID]dataplane.DeviceID{"b1": "g1", "b2": "g2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	leaf := h.Leaves[0]
	ab := leaf.Abstraction()
	var gbsPort, egPort dataplane.PortID
	for _, gp := range ab.GSwitch.Ports {
		if gp.GBS != "" {
			gbsPort = gp.ID
		}
		if gp.External {
			egPort = gp.ID
		}
	}
	if gbsPort == 0 || egPort == 0 {
		t.Fatalf("fixture: gbsPort=%d egPort=%d", gbsPort, egPort)
	}

	// Fail every install on A2 — the second fan-out source — after A1's
	// path installed cleanly.
	net.SetInstallFault(func(sw dataplane.DeviceID, r *dataplane.Rule) error {
		if sw == "A2" {
			return fmt.Errorf("injected install fault on %s", sw)
		}
		return nil
	})
	vrule := dataplane.Rule{
		Priority: 100, Version: 7, Owner: "root/p99",
		Match:   dataplane.Match{InPort: gbsPort, MatchNoLabel: true, UE: "u1", QoS: -1},
		Actions: []dataplane.Action{dataplane.Push(42), dataplane.Output(egPort)},
	}
	installedBefore := leaf.StatsSnapshot().RulesInstalled
	if err := leaf.TranslateRules([]dataplane.Rule{vrule}, nil); err == nil {
		t.Fatal("expected the injected fault to fail the translation")
	}
	if leaf.StatsSnapshot().RulesInstalled <= installedBefore {
		t.Fatal("fixture did not install anything before the fault — rollback unexercised")
	}
	for _, sw := range net.Switches() {
		for _, r := range sw.Table.Rules() {
			if r.Owner == "root/p99" {
				t.Fatalf("partial install survived on %s: %v", sw.ID, r)
			}
		}
	}

	// With the fault cleared the same virtual rule installs end to end.
	net.SetInstallFault(nil)
	if err := leaf.TranslateRules([]dataplane.Rule{vrule}, nil); err != nil {
		t.Fatalf("clean retry failed: %v", err)
	}
	rules := 0
	for _, sw := range net.Switches() {
		for _, r := range sw.Table.Rules() {
			if r.Owner == "root/p99" {
				rules++
			}
		}
	}
	if rules == 0 {
		t.Fatal("clean retry installed nothing")
	}
}
