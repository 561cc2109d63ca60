package workload

import "testing"

func failoverConfig() Config {
	return Config{
		Seed:    42,
		UEs:     300,
		Events:  3000,
		Regions: 2,
		Mode:    ModeClosed,
	}
}

// TestFailoverDigestMatchesPlainRun is the exactly-once property: a run
// that loses its master mid-flight — with acked-but-uncommitted commits,
// abandoned in-flight ops, and a blackout — must land on the exact same
// final state as an undisturbed run at the same seed.
func TestFailoverDigestMatchesPlainRun(t *testing.T) {
	cfg := failoverConfig()
	eng, cl, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	eng.Run()
	want := StateDigest(cl)

	spec := FailoverSchedule{KillAt: 1500, LostCommits: 3, Abandon: 4, SnapshotEvery: 64}
	_, fcl, stats, err := RunFailoverPass(cfg, spec)
	if err != nil {
		t.Fatalf("failover pass: %v", err)
	}
	if got := StateDigest(fcl); got != want {
		t.Fatalf("state digest diverged after failover: plain %s, failover %s", want, got)
	}
	if stats.EventsLost != 0 {
		t.Fatalf("lost %d acked events across failover", stats.EventsLost)
	}
	if !stats.UETableConverged || !stats.ReplicaConverged {
		t.Fatalf("convergence failed: ue_table=%t replica=%t", stats.UETableConverged, stats.ReplicaConverged)
	}
	if stats.RedoneEntries < stats.AbandonedInFlight {
		t.Fatalf("promotion redid %d entries, expected at least the %d abandoned ops",
			stats.RedoneEntries, stats.AbandonedInFlight)
	}
	if stats.DuplicatesDetected > stats.LostCommits {
		t.Fatalf("detected %d duplicates, more than the %d lost commits", stats.DuplicatesDetected, stats.LostCommits)
	}
	if stats.PromotionLatencyNs <= 0 || stats.RecoveryWallNs <= 0 {
		t.Fatalf("unmeasured recovery: promotion=%dns recovery=%dns", stats.PromotionLatencyNs, stats.RecoveryWallNs)
	}
}

// TestFailoverSnapshotBoundsReplay compares the same crash schedule with
// incremental snapshots against full-history replay: the snapshot pass
// must promote from a checkpoint, replay strictly fewer entries, and
// still reach the identical final state.
func TestFailoverSnapshotBoundsReplay(t *testing.T) {
	cfg := failoverConfig()
	spec := FailoverSchedule{KillAt: 2000, LostCommits: 2, Abandon: 3, SnapshotEvery: 64}

	_, scl, snap, err := RunFailoverPass(cfg, spec)
	if err != nil {
		t.Fatalf("snapshot pass: %v", err)
	}
	spec.SnapshotEvery = 0
	_, fcl, full, err := RunFailoverPass(cfg, spec)
	if err != nil {
		t.Fatalf("full-replay pass: %v", err)
	}

	if sd, fd := StateDigest(scl), StateDigest(fcl); sd != fd {
		t.Fatalf("digest mismatch between passes: snapshot %s, full %s", sd, fd)
	}
	if !snap.FromSnapshot {
		t.Fatal("snapshot pass promoted without a checkpoint")
	}
	if full.FromSnapshot {
		t.Fatal("full-replay pass unexpectedly found a checkpoint")
	}
	if snap.ReplayedEntries >= full.ReplayedEntries {
		t.Fatalf("snapshot replay not cheaper: %d entries vs %d from genesis",
			snap.ReplayedEntries, full.ReplayedEntries)
	}
	if snap.LogLenFinal >= full.LogLenFinal {
		t.Fatalf("truncation did not shrink the retained log: %d vs %d entries",
			snap.LogLenFinal, full.LogLenFinal)
	}
	sec := BuildFailoverSection("x", snap, full)
	if sec.ReplayReduction <= 1 {
		t.Fatalf("replay reduction %.2f, want > 1", sec.ReplayReduction)
	}
}

// TestFailoverScheduleNormalization pins the clamping rules that keep a
// schedule from deadlocking the driver.
func TestFailoverScheduleNormalization(t *testing.T) {
	s, err := FailoverSchedule{KillAt: 100, LostCommits: 5, Abandon: 50}.Normalized(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Abandon != 8 {
		t.Fatalf("abandon window not clamped to workers: %d", s.Abandon)
	}
	if _, err := (FailoverSchedule{KillAt: 990, LostCommits: 0, Abandon: 20}).Normalized(1000, 64); err == nil {
		t.Fatal("schedule overflowing the run must be rejected")
	}
	if _, err := (FailoverSchedule{KillAt: 0, Abandon: 1}).Normalized(1000, 8); err == nil {
		t.Fatal("non-positive KillAt must be rejected")
	}
}
