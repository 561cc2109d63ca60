package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
)

func impairedConfig(seed int64, prof *netem.Profile) Config {
	return Config{
		Seed: seed, Regions: 2, BSPerRegion: 2, UEs: 60, Events: 400,
		ControlDelay: 200 * time.Microsecond,
		Impair:       prof,
	}
}

func runOnce(t *testing.T, cfg Config) (*Result, string, string, netem.Stats) {
	t.Helper()
	eng, cl, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res := eng.Run()
	if res.FirstErr != nil {
		t.Fatalf("impaired run failed ops: %d first=%v", res.Failures, res.FirstErr)
	}
	return res, TraceDigest(res.Ops), StateDigest(cl), cl.ImpairmentStats()
}

// TestImpairedRunMatchesClean: a lossy, jittery, reordering control
// channel changes only timings — the replayable trace and final UE-table
// state are byte-identical to the clean delayed run, and no operation
// fails (retried fences absorb the loss).
func TestImpairedRunMatchesClean(t *testing.T) {
	prof := &netem.Profile{
		Jitter:  300 * time.Microsecond,
		Loss:    0.01,
		Reorder: 0.02,
	}
	_, cleanTrace, cleanState, _ := runOnce(t, impairedConfig(11, nil))
	_, impTrace, impState, ns := runOnce(t, impairedConfig(11, prof))
	if impTrace != cleanTrace {
		t.Fatalf("trace digest diverged: clean %s impaired %s", cleanTrace, impTrace)
	}
	if impState != cleanState {
		t.Fatalf("state digest diverged: clean %s impaired %s", cleanState, impState)
	}
	if ns.DroppedLoss == 0 {
		t.Fatal("impairment never dropped a frame — profile not active")
	}
	if ns.Delivered == 0 {
		t.Fatal("no frames delivered through the impaired channel")
	}
}

// TestImpairedSameSeedIdentical: the impaired run is replay-deterministic
// in its logical outcome — same (seed, profile) twice, same digests.
func TestImpairedSameSeedIdentical(t *testing.T) {
	prof := &netem.Profile{Jitter: 200 * time.Microsecond, Loss: 0.02}
	_, tr1, st1, _ := runOnce(t, impairedConfig(5, prof))
	_, tr2, st2, _ := runOnce(t, impairedConfig(5, prof))
	if tr1 != tr2 || st1 != st2 {
		t.Fatalf("same-seed impaired runs diverged: %s/%s vs %s/%s", tr1, st1, tr2, st2)
	}
}

// TestPartitionLivenessRecovery drives the full acceptance cycle on a
// real protocol cluster: a hard partition of one region's control
// channels makes the liveness prober declare every switch suspect and
// mark its links down; healing the partition recovers the suspects and
// targeted rediscovery restores every link — no full refresh, no
// surviving down-links.
func TestPartitionLivenessRecovery(t *testing.T) {
	cl, err := BuildCluster(2, 1, 0, ControlPlane{Delay: 200 * time.Microsecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	leaf := cl.Regions[0].Leaf
	upBefore := leaf.NIB.NumUpLinks()
	if upBefore == 0 {
		t.Fatal("leaf bootstrapped with no up links")
	}
	prober := core.NewLivenessProber(leaf, core.LivenessConfig{
		Timeout:      50 * time.Millisecond,
		SuspectAfter: 2,
	})
	prober.ProbeOnce()
	if s := prober.Stats(); s.Misses != 0 {
		t.Fatalf("healthy cluster missed probes: %+v", s)
	}

	cl.SetRegionDown(0, true)
	prober.ProbeOnce()
	prober.ProbeOnce()
	if got := prober.Suspects(); len(got) != 4 {
		t.Fatalf("suspects = %v, want all 4 region-0 switches", got)
	}
	if up := leaf.NIB.NumUpLinks(); up != 0 {
		t.Fatalf("%d links still up under full region partition", up)
	}

	cl.SetRegionDown(0, false)
	prober.ProbeOnce()
	if got := prober.Suspects(); len(got) != 0 {
		t.Fatalf("suspects after heal: %v", got)
	}
	if s := prober.Stats(); s.Rediscoveries != 4 {
		t.Fatalf("rediscoveries = %d, want 4", s.Rediscoveries)
	}
	// Rediscovery frames cross the (delayed) wire asynchronously; wait for
	// the NIB to converge back to the bootstrap link set.
	deadline := time.Now().Add(5 * time.Second)
	for leaf.NIB.NumUpLinks() != upBefore {
		if time.Now().After(deadline) {
			t.Fatalf("links restored: %d/%d", leaf.NIB.NumUpLinks(), upBefore)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
