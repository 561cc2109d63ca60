package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ltetrace"
)

func testConfig() Config {
	return Config{
		Seed: 42, Regions: 3, BSPerRegion: 2,
		UEs: 150, Events: 1500,
	}
}

// TestGeneratorDeterminism: the schedule is a pure function of (seed,
// config) — and different seeds diverge.
func TestGeneratorDeterminism(t *testing.T) {
	cfg := testConfig()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	a := NewGenerator(cfg).Generate()
	b := NewGenerator(cfg).Generate()
	if len(a) != cfg.Events {
		t.Fatalf("generated %d ops, want %d", len(a), cfg.Events)
	}
	if TraceDigest(a) != TraceDigest(b) {
		t.Fatal("same seed produced different schedules")
	}
	cfg2 := cfg
	cfg2.Seed = 43
	if err := cfg2.normalize(); err != nil {
		t.Fatal(err)
	}
	if TraceDigest(a) == TraceDigest(NewGenerator(cfg2).Generate()) {
		t.Fatal("different seeds produced identical schedules")
	}
	// The default mix must exercise every operation kind.
	var seen [numOpKinds]int
	for _, op := range a {
		seen[op.Kind]++
	}
	for _, k := range OpKinds() {
		if seen[k] == 0 {
			t.Fatalf("default mix never generated %s", k)
		}
	}
}

// TestGeneratorLifecycle: the schedule is executable — per UE, the op
// sequence respects the attach → {setup,teardown,handover}* → detach
// lifecycle the controllers enforce.
func TestGeneratorLifecycle(t *testing.T) {
	cfg := testConfig()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	state := make(map[int]int) // UE → generator state
	for _, op := range NewGenerator(cfg).Generate() {
		s := state[op.UE]
		valid := false
		switch op.Kind {
		case OpAttach:
			valid = s == ueDetached
			s = ueActive
		case OpBearerSetup:
			valid = s == ueIdle
			s = ueActive
		case OpBearerTeardown:
			valid = s == ueActive
			s = ueIdle
		case OpHandoverIntra:
			valid = s == ueActive
		case OpHandoverInter:
			valid = s == ueActive && op.Dst != op.Region
			s = ueRoamed
		case OpDetach:
			valid = s != ueDetached
			s = ueDetached
		}
		if !valid {
			t.Fatalf("op %d (%s) illegal for UE %d in state %d", op.Seq, op.Kind, op.UE, state[op.UE])
		}
		state[op.UE] = s
	}
}

// TestEngineDeterminism: trace and final logical state digests are
// identical across worker counts and pacing modes; no operation fails.
func TestEngineDeterminism(t *testing.T) {
	type variant struct {
		name    string
		mutate  func(*Config)
		workers int
	}
	variants := []variant{
		{"serial", func(c *Config) { c.Workers = 1 }, 1},
		{"parallel", func(c *Config) { c.Workers = 8 }, 8},
		{"open-loop", func(c *Config) { c.Workers = 8; c.Mode = ModeOpen; c.MaxInFlight = 4 }, 8},
	}
	var trace, state string
	for _, v := range variants {
		cfg := testConfig()
		v.mutate(&cfg)
		eng, cl, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Run()
		if res.Failures != 0 {
			t.Fatalf("%s: %d failures, first: %v", v.name, res.Failures, res.FirstErr)
		}
		td, sd := TraceDigest(res.Ops), StateDigest(cl)
		cl.Close()
		if trace == "" {
			trace, state = td, sd
			continue
		}
		if td != trace {
			t.Fatalf("%s: trace digest %s, want %s", v.name, td, trace)
		}
		if sd != state {
			t.Fatalf("%s: state digest %s, want %s", v.name, sd, state)
		}
	}
}

// TestEngineReport: the report carries the per-op stats and digests the
// CI smoke job asserts on.
func TestEngineReport(t *testing.T) {
	cfg := testConfig()
	eng, cl, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res := eng.Run()
	rep := BuildReport(cfg, cl, res)
	if rep.Events != cfg.Events || rep.Failures != 0 {
		t.Fatalf("events=%d failures=%d", rep.Events, rep.Failures)
	}
	if rep.EventsPerSec <= 0 || rep.ElapsedSec <= 0 {
		t.Fatalf("rates not measured: eps=%f elapsed=%f", rep.EventsPerSec, rep.ElapsedSec)
	}
	if rep.TraceDigest == "" || rep.StateDigest == "" {
		t.Fatal("missing digests")
	}
	if rep.Config.Shards != core.DefaultUEShards {
		t.Fatalf("config echo shards = %d, want the %d stripes that ran", rep.Config.Shards, core.DefaultUEShards)
	}
	att, ok := rep.Ops[OpAttach.String()]
	if !ok || att.Count == 0 {
		t.Fatal("attach stats missing")
	}
	if att.P99 < att.P50 || att.Max < att.P99 {
		t.Fatalf("quantiles inverted: p50=%v p99=%v max=%v", att.P50, att.P99, att.Max)
	}
	// The final UE table must hold exactly the attached (non-detached)
	// population, and the roamed/active/idle split must match the
	// generator's view.
	gen := NewGenerator(func() Config { c := cfg; _ = c.normalize(); return c }())
	gen.Generate()
	want := cfg.UEs - gen.pools[ueDetached].len()
	if rep.FinalUEs != want {
		t.Fatalf("final UE rows = %d, generator expects %d attached", rep.FinalUEs, want)
	}
}

// TestMixFromLTE: the derived mix and per-BS weights are positive and
// shaped by the diurnal model.
func TestMixFromLTE(t *testing.T) {
	p := ltetrace.Params{}
	mix, weights := MixFromLTE(p, 12*60, 3, 2)
	if len(weights) != 6 {
		t.Fatalf("got %d BS weights, want 6", len(weights))
	}
	for i, w := range weights {
		if w <= 0 {
			t.Fatalf("weight[%d] = %f", i, w)
		}
	}
	if mix.Attach <= 0 || mix.BearerSetup <= 0 || mix.HandoverIntra <= 0 || mix.HandoverInter <= 0 {
		t.Fatalf("degenerate mix: %+v", mix)
	}
	if mix.Attach != mix.Detach || mix.BearerSetup != mix.BearerTeardown {
		t.Fatal("mix must keep the population stationary")
	}
	// Noon rates must exceed the 4am trough (the model's diurnal shape).
	night, _ := MixFromLTE(p, 4*60, 3, 2)
	if mix.BearerSetup <= night.BearerSetup {
		t.Fatalf("noon bearer weight %f not above 4am %f", mix.BearerSetup, night.BearerSetup)
	}
	// An LTE-derived run must execute cleanly end to end.
	cfg := testConfig()
	cfg.Mix, cfg.BSWeights = MixFromLTE(p, 12*60, cfg.Regions, cfg.BSPerRegion)
	eng, _, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := eng.Run(); res.Failures != 0 {
		t.Fatalf("LTE-derived run failed: %v", res.FirstErr)
	}
}

// TestAssembleDistReportKeepsFirstErr: a region process that failed ops
// reports why, and the merged report says so per process and at the top —
// a failure count with no reason is how fence exhaustion went unseen.
func TestAssembleDistReportKeepsFirstErr(t *testing.T) {
	cfg := testConfig()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	const reason = "op 17 (bearer-setup ue0000003): fence failed after 3 attempts"
	rep := assembleDistReport(cfg, 3, []ProcResult{
		{Proc: 0, Lo: 0, Hi: 1, Events: 500, ElapsedSec: 1},
		{Proc: 1, Lo: 1, Hi: 2, Events: 498, Failures: 2, ElapsedSec: 1, FirstErr: reason},
		{Proc: 2, Lo: 2, Hi: 3, Events: 499, Failures: 1, ElapsedSec: 1, FirstErr: "a later failure"},
	}, nil, 0)
	if rep.Failures != 3 {
		t.Fatalf("Failures = %d, want 3", rep.Failures)
	}
	if rep.FirstErr != reason {
		t.Fatalf("report FirstErr = %q, want the first failing process's %q", rep.FirstErr, reason)
	}
	per := rep.Distributed.Per
	if per[0].FirstErr != "" || per[1].FirstErr != reason || per[2].FirstErr != "a later failure" {
		t.Fatalf("per-process FirstErr not carried: %+v", per)
	}
}
