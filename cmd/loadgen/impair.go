package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/workload"
)

// impairScenario is one row of the -impair-matrix run plan.
type impairScenario struct {
	name    string
	profile netem.Profile
	// partition runs the schedule in two quiesced halves around a hard
	// region-0 control-channel partition with liveness-driven recovery.
	partition bool
}

// impairMatrix is the default scenario set: a clean reference, loss and
// jitter alone and combined, and a scheduled partition with liveness
// recovery.
func impairMatrix() []impairScenario {
	lossy := netem.Profile{Loss: 0.01}
	jittery := netem.Profile{Jitter: 2 * time.Millisecond}
	both := netem.Profile{Loss: 0.01, Jitter: 2 * time.Millisecond}
	return []impairScenario{
		{name: "clean"},
		{name: "lossy", profile: lossy},
		{name: "jittery", profile: jittery},
		{name: "lossy+jittery", profile: both},
		{name: "partitioned", partition: true},
	}
}

// counterDelta reads the named process-global counter's growth since the
// snapshot in before.
func counterDelta(before map[string]int64, name string) int64 {
	return metrics.RuntimeCounters()[name] - before[name]
}

// runImpairMatrix executes every scenario at the shared (seed, config)
// and cross-checks that all of them land on the clean scenario's replay
// digests — impairment may move timings, never logical state. It returns
// the matrix section, or an error naming the first diverging scenario.
func runImpairMatrix(cfg workload.Config) (*workload.ImpairmentMatrix, error) {
	m := &workload.ImpairmentMatrix{}
	for _, sc := range impairMatrix() {
		row, err := runImpairScenario(cfg, sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.name, err)
		}
		m.Scenarios = append(m.Scenarios, *row)
	}
	ref := m.Scenarios[0]
	for _, row := range m.Scenarios[1:] {
		if row.TraceDigest != ref.TraceDigest || row.StateDigest != ref.StateDigest {
			return nil, fmt.Errorf("scenario %s diverged from clean: trace %s/%s state %s/%s",
				row.Name, row.TraceDigest, ref.TraceDigest, row.StateDigest, ref.StateDigest)
		}
		if row.Failures > 0 {
			return nil, fmt.Errorf("scenario %s failed %d ops", row.Name, row.Failures)
		}
	}
	return m, nil
}

// runImpairScenario executes one scenario pass and assembles its row.
func runImpairScenario(cfg workload.Config, sc impairScenario) (*workload.ImpairmentScenario, error) {
	if !sc.profile.IsZero() {
		p := sc.profile
		cfg.Impair = &p
	} else {
		cfg.Impair = nil
	}
	before := metrics.RuntimeCounters()
	eng, cl, err := workload.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	ops, err := workload.GenerateSchedule(cfg)
	if err != nil {
		return nil, err
	}
	row := &workload.ImpairmentScenario{Name: sc.name, Profile: cfg.EffectiveProfile()}
	var res *workload.Result
	if sc.partition {
		res, row.Partition, err = runPartitioned(cfg, eng, cl, ops)
		if err != nil {
			return nil, err
		}
	} else {
		res = eng.RunOps(ops)
	}
	if res.FirstErr != nil {
		fmt.Fprintf(os.Stderr, "loadgen: impair %s: first failure: %v\n", sc.name, res.FirstErr)
	}
	row.Events = len(ops)
	row.Failures = res.Failures
	row.ElapsedSec = res.Elapsed.Seconds()
	row.EventsPerSec = res.EventsPerSec()
	row.TraceDigest = workload.TraceDigest(ops)
	row.StateDigest = workload.StateDigest(cl)
	row.Netem = cl.ImpairmentStats()
	row.RTTSamples = counterDelta(before, "core.southbound.rtt_samples")
	row.BarrierRetries = counterDelta(before, "core.southbound.barrier_retries")
	row.StaleReplies = counterDelta(before, "core.southbound.rtt_stale_replies")
	return row, nil
}

// runPartitioned executes the schedule in two quiesced halves around a
// hard partition of region 0's control channels: the first half runs
// clean, the liveness prober then detects the dark region (suspects, NIB
// links down), the partition heals, targeted rediscovery restores the
// links, and the second half runs to completion. Because the partition
// window contains no operations, the replay digests must still equal the
// clean scenario's.
func runPartitioned(cfg workload.Config, eng *workload.Engine, cl *workload.Cluster, ops []workload.Op) (*workload.Result, *workload.PartitionOutcome, error) {
	leaf := cl.Regions[0].Leaf
	upBefore := leaf.NIB.NumUpLinks()
	prober := core.NewLivenessProber(leaf, core.LivenessConfig{
		Timeout:      50 * time.Millisecond,
		SuspectAfter: 2,
	})
	half := len(ops) / 2
	res1 := eng.RunOps(ops[:half])

	cl.SetRegionDown(0, true)
	prober.ProbeOnce()
	prober.ProbeOnce()
	suspects := len(prober.Suspects())
	cl.SetRegionDown(0, false)
	prober.ProbeOnce()
	restored := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if leaf.NIB.NumUpLinks() == upBefore {
			restored = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := prober.Stats()
	outcome := &workload.PartitionOutcome{
		Suspects:      int64(suspects),
		Rediscoveries: st.Rediscoveries,
		LinksRestored: restored,
	}
	if suspects == 0 {
		return nil, nil, fmt.Errorf("partition declared no suspects")
	}
	if !restored {
		return nil, nil, fmt.Errorf("liveness recovery left %d/%d links up",
			leaf.NIB.NumUpLinks(), upBefore)
	}

	res2 := eng.RunOps(ops[half:])
	// The engine accumulates per-op histograms across both RunOps calls;
	// merge only the whole-run aggregates the row reports.
	res2.Elapsed += res1.Elapsed
	res2.Stalls += res1.Stalls
	if res2.FirstErr == nil {
		res2.FirstErr = res1.FirstErr
	}
	res2.Ops = ops
	return res2, outcome, nil
}
