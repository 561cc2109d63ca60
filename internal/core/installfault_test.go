package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/reca"
)

// failingDevice wraps a device and, while fail is set, refuses every
// install before it reaches the inner device.
type failingDevice struct {
	Device
	fail atomic.Bool
}

func (d *failingDevice) InstallRules(rules []dataplane.Rule) error {
	if d.fail.Load() {
		return fmt.Errorf("injected install fault on %s", d.ID())
	}
	return d.Device.InstallRules(rules)
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
	a2 := &failingDevice{Device: leaf.Device("A2")}
	a2.fail.Store(true)
	leaf.AttachDevice(a2)
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
	a2.fail.Store(false)
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
