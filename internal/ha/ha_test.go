package ha

import (
	"testing"
	"time"

	"repro/internal/nib"
	"repro/internal/simnet"
)

func newPair(redo func(nib.LogEntry) error) (*simnet.Sim, *Pair) {
	sim := simnet.New()
	store := NewSharedStore()
	return sim, NewPair(sim, store, "C1-master", "C1-standby", redo)
}

func TestNormalOperation(t *testing.T) {
	sim, p := newPair(nil)
	processed := 0
	if err := p.HandleEvent("bearer", "req1", func() error { processed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if processed != 1 {
		t.Fatal("event not processed")
	}
	if len(p.Store.Log.Unfinished()) != 0 {
		t.Fatal("completed event left unfinished")
	}
	sim.RunUntil(2 * time.Second)
	if p.Failovers != 0 {
		t.Fatal("spurious failover")
	}
	if p.Master().ID != "C1-master" {
		t.Fatal("master changed without failure")
	}
	if p.MasterCount() != 1 {
		t.Fatalf("master count = %d", p.MasterCount())
	}
}

func TestFailoverPromotesStandby(t *testing.T) {
	var redone []nib.LogEntry
	sim, p := newPair(func(e nib.LogEntry) error { redone = append(redone, e); return nil })

	// master logs an event but crashes before finishing it
	p.LogOnly("handover", "ho-42")
	p.KillMaster()
	sim.RunUntil(2 * time.Second)

	if p.Failovers != 1 {
		t.Fatalf("failovers = %d", p.Failovers)
	}
	m := p.Master()
	if m == nil || m.ID != "C1-standby" {
		t.Fatalf("master = %+v", m)
	}
	if len(redone) != 1 || redone[0].Payload != "ho-42" {
		t.Fatalf("redone = %+v", redone)
	}
	if len(p.Store.Log.Unfinished()) != 0 {
		t.Fatal("unfinished events after replay")
	}
	if p.MasterCount() != 1 {
		t.Fatalf("master count = %d", p.MasterCount())
	}
	if p.Standby() != nil {
		t.Fatal("standby should be gone after promotion")
	}
}

func TestFailoverPreservesCompletedWork(t *testing.T) {
	var redone []nib.LogEntry
	sim, p := newPair(func(e nib.LogEntry) error { redone = append(redone, e); return nil })
	p.HandleEvent("bearer", "done-1", func() error { return nil })
	p.LogOnly("bearer", "pending-1")
	p.LogOnly("bearer", "pending-2")
	p.KillMaster()
	sim.RunUntil(2 * time.Second)

	if len(redone) != 2 {
		t.Fatalf("redone = %+v", redone)
	}
	if redone[0].Payload != "pending-1" || redone[1].Payload != "pending-2" {
		t.Fatalf("replay order wrong: %+v", redone)
	}
}

func TestNewMasterServesEvents(t *testing.T) {
	sim, p := newPair(nil)
	p.KillMaster()
	sim.RunUntil(2 * time.Second)
	count := 0
	if err := p.HandleEvent("bearer", "x", func() error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatal("promoted master should process events")
	}
	if p.Master().Processed() == 0 {
		t.Fatal("processed counter")
	}
}

func TestNoMasterErrors(t *testing.T) {
	sim, p := newPair(nil)
	p.KillMaster()
	// kill standby too, before promotion
	s := p.Standby()
	s.mu.Lock()
	s.alive = false
	s.mu.Unlock()
	sim.RunUntil(2 * time.Second)
	if err := p.HandleEvent("x", nil, func() error { return nil }); err == nil {
		t.Fatal("expected error with no live master")
	}
	if p.MasterCount() != 0 {
		t.Fatalf("master count = %d", p.MasterCount())
	}
}

func TestFailoverTimingRespectsTimeout(t *testing.T) {
	sim := simnet.New()
	store := NewSharedStore()
	p := NewPair(sim, store, "m", "s", nil)
	p.KillMaster()
	// before the failure timeout elapses, no promotion
	sim.RunUntil(p.FailureTimeout - 50*time.Millisecond)
	if p.Failovers != 0 {
		t.Fatal("premature failover")
	}
	sim.RunUntil(2 * time.Second)
	if p.Failovers != 1 {
		t.Fatal("failover never happened")
	}
}

func TestAtMostOneMasterAlways(t *testing.T) {
	sim, p := newPair(nil)
	for i := 0; i < 20; i++ {
		sim.RunUntil(time.Duration(i) * 100 * time.Millisecond)
		if p.MasterCount() > 1 {
			t.Fatalf("two masters at %v", sim.Now())
		}
	}
	p.KillMaster()
	for i := 20; i < 60; i++ {
		sim.RunUntil(time.Duration(i) * 100 * time.Millisecond)
		if p.MasterCount() > 1 {
			t.Fatalf("two masters at %v", sim.Now())
		}
	}
}

func TestRoleStrings(t *testing.T) {
	if RoleMaster.String() != "master" || RoleStandby.String() != "standby" {
		t.Fatal("role strings")
	}
}

func TestSharedStoreWiring(t *testing.T) {
	s := NewSharedStore()
	if s.NIB == nil || s.Log == nil {
		t.Fatal("store incomplete")
	}
	if s.NIB.Log() != s.Log {
		t.Fatal("log must be the NIB's log")
	}
}

// Processed reports how many events this instance completed.
func (i *Instance) Processed() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.processed
}

// Standby returns the standby instance (nil after promotion or failure).
func (p *Pair) Standby() *Instance {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.standby != nil && p.standby.Alive() && p.standby.Role() == RoleStandby {
		return p.standby
	}
	return nil
}
