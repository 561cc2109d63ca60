package chaos

import (
	"reflect"
	"testing"
)

// TestChaosInvariants is the tier-1 bounded chaos run: a fixed seed drives
// a 3-region two-level hierarchy through 220 randomized fault events with
// every invariant checked after each one. The seed is chosen so every
// event family actually fires.
func TestChaosInvariants(t *testing.T) {
	h, err := New(Options{Seed: 7, Regions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Run(220); err != nil {
		for _, line := range h.EventLog() {
			t.Log(line)
		}
		t.Fatal(err)
	}
	s := h.Stats()
	t.Logf("stats: %+v", s)
	if s.Events != 220 {
		t.Fatalf("events=%d want 220", s.Events)
	}
	if s.BearersAdded == 0 || s.LinkFails == 0 || s.LinkRestores == 0 ||
		s.Flaps == 0 || s.SilentPortDowns == 0 || s.InstallFaults == 0 ||
		s.Failovers == 0 || s.Reconfigs == 0 || s.Teardowns == 0 {
		t.Fatalf("seed did not exercise every event family: %+v", s)
	}
	if s.FaultsInjected == 0 {
		t.Fatalf("no install fault actually fired: %+v", s)
	}
}

// TestChaosSeedReplay asserts determinism: the same seed reproduces the
// byte-identical event log, and a different seed diverges.
func TestChaosSeedReplay(t *testing.T) {
	run := func(seed int64) []string {
		h, err := New(Options{Seed: seed, Regions: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Run(80); err != nil {
			t.Fatal(err)
		}
		return h.EventLog()
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different event logs")
	}
	if c := run(43); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical event logs")
	}
}

// TestFaultPlanSkip checks the single-shot arming discipline.
func TestFaultPlanSkip(t *testing.T) {
	p := &FaultPlan{}
	if err := p.fail("s"); err != nil {
		t.Fatal("disarmed plan must not fire")
	}
	p.Arm(2)
	if p.fail("s") != nil || p.fail("s") != nil {
		t.Fatal("skipped installs must pass")
	}
	if p.fail("s") == nil {
		t.Fatal("third install must fail")
	}
	if p.fail("s") != nil {
		t.Fatal("plan must self-disarm after firing")
	}
	if !p.Disarm() {
		t.Fatal("Disarm must report the fault fired")
	}
	p.Arm(5)
	if p.fail("s") != nil {
		t.Fatal("skip budget not exhausted — must pass")
	}
	if p.Disarm() {
		t.Fatal("Disarm must report the fault never fired")
	}
}

// EventLog returns the deterministic event trace (one line per action);
// two runs with equal Options produce byte-identical logs.
func (h *Harness) EventLog() []string {
	return append([]string(nil), h.log...)
}
