package main

import (
	"time"

	"repro/internal/workload"
)

// Load shape shared by every workload: the canonical engine shape for the
// closed loop, one pacer under a bounded window for the open loop.
const (
	runSeconds    = 15  // the measured window BENCHMARK.json asks the driver for
	lanes         = 8   // closed-loop lanes, ops keyed to a lane by UE
	laneWindow    = 4   // ops in flight per lane
	openWindow    = 128 // open-loop in-flight cap
	regions       = 4
	bsPerRegion   = 4
	ueShards      = 16
	controlDelay  = 200 * time.Microsecond
	fenceMinRTO   = 50 * time.Millisecond // see relaxRTO
	flapPeriod    = 3 * time.Second
	tracedProbe   = 100 * time.Millisecond // each isolated probe inside a traced run
	canonicalWarm = 200_000                // mixed_pipe warm-up = the repo's canonical run
)

// Pinned replay digests of the canonical config (seed 1, first 200k
// events): BENCH_workload.json, Makefile smoke-impaired, ROADMAP.
const (
	canonicalTraceDigest = "38b75103cf760429"
	canonicalStateDigest = "904e505b89fcac36"
)

// boundaryPins are the trace and state digests each workload must show at
// the end of its warm-up at the default seed (1) and full scale.
var boundaryPins = map[string][2]string{
	"mixed_pipe":    {canonicalTraceDigest, canonicalStateDigest},
	"bearer_direct": {"e7c95b86c84670e3", "c066b99f0390f980"},
	"tree_tcp":      {"7a73f2c2d3d62822", "917d827238d74224"},
	"flap_repair":   {"0f9a9e25ae0161f8", "76eb658b3d274124"},
}

// spec is one benchmark workload: the cluster it builds, the schedule it
// generates from the seed, and how the schedule is offered.
type spec struct {
	name string
	why  string
	// ues, mix and remoteShare parameterize workload.GenerateSchedule.
	ues         int
	mix         workload.Mix
	remoteShare float64
	// delay is the leaf↔switch one-way control delay; 0 keeps direct
	// in-process devices (no southbound protocol at all).
	delay time.Duration
	// tcp assembles the two-level tree over loopback TCP BinConns instead
	// of the in-process ParentLink.
	tcp bool
	// flap runs the link flap/repair goroutine beside the load.
	flap bool
	// warm is the unmeasured schedule prefix, always run closed loop.
	warm int
	// rate > 0 offers the measured part open loop at this many events/s;
	// 0 runs it closed loop, and capRate then sizes the schedule: the run
	// is bounded by time, the schedule only has to outlast it.
	rate    float64
	capRate float64
}

var specs = []spec{
	{
		name: "mixed_pipe",
		why:  "closed loop on the canonical config: core, southbound pipeline, netem timers and dataplane share the work",
		ues:  100_000, mix: workload.DefaultMix(), remoteShare: 0.2,
		delay: controlDelay, warm: canonicalWarm, capRate: 45_000,
	},
	{
		name: "bearer_direct",
		why:  "closed loop on direct devices: pure CPU path through core, routing, dataplane and nib; bypasses southbound, northbound, netem and the root",
		ues:  100_000,
		mix: workload.Mix{Attach: 10, BearerSetup: 35, BearerTeardown: 35,
			HandoverIntra: 15, Detach: 5},
		warm: 100_000, capRate: 200_000,
	},
	{
		name: "tree_tcp",
		why:  "open loop on a two-level tree over loopback TCP: northbound delegation, binary codec and BinConn syscalls do most of the work",
		ues:  20_000,
		mix: workload.Mix{Attach: 25, BearerSetup: 10, BearerTeardown: 10,
			HandoverIntra: 10, HandoverInter: 25, Detach: 20},
		remoteShare: 0.5, delay: controlDelay, tcp: true,
		warm: 30_000, rate: 2500,
	},
	{
		name: "flap_repair",
		why:  "open loop beside rotating link flaps: NIB generation bumps, graph-cache misses and make-before-break reroutes next to live setups",
		ues:  10_000,
		mix: workload.Mix{Attach: 30, BearerSetup: 20, BearerTeardown: 20,
			HandoverIntra: 15, Detach: 15},
		delay: controlDelay, flap: true,
		warm: 60_000, rate: 3000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload for smoke runs: population and warm-up (and,
// see flapEvery, the flap period) scale together so a sub-second window
// still sees every code path. Rates are left alone — they are what the
// window measures.
func (s spec) scaled(scale float64) spec {
	if scale >= 1 {
		return s
	}
	s.ues = max(int(float64(s.ues)*scale), 200)
	s.warm = max(int(float64(s.warm)*scale), 400)
	return s
}

// flapEvery is the flapper's period at the given scale.
func flapEvery(scale float64) time.Duration {
	return max(time.Duration(float64(flapPeriod)*min(scale, 1)), 100*time.Millisecond)
}

// config is the generator config for n events at the given seed.
func (s spec) config(seed int64, events int) workload.Config {
	return workload.Config{
		Seed: seed, Regions: regions, BSPerRegion: bsPerRegion,
		UEs: s.ues, Events: events, Shards: ueShards,
		Mode: workload.ModeClosed, Workers: lanes, MaxInFlight: lanes * laneWindow,
		Mix: s.mix, RemotePrefixShare: s.remoteShare, ControlDelay: s.delay,
	}
}

// events is the schedule length for a measured window of the given
// length: the warm-up prefix plus what the window can consume.
func (s spec) events(window time.Duration) int {
	r := s.rate
	if r == 0 {
		r = s.capRate
	}
	return s.warm + int(r*window.Seconds())
}
