// Package workload is the deterministic UE traffic engine: it drives
// attach/detach, bearer setup/teardown, and intra-/inter-region handovers
// against a live controller hierarchy at configurable rates, the event
// load the ROADMAP's "millions of users" north star asks the control plane
// to absorb (§7.2 runs the evaluation at this scale).
//
// The engine splits generation from execution so load can be replayed:
//
//   - A Generator expands a seed into a totally ordered operation
//     schedule using only simnet.RNG streams and per-UE state machines —
//     no wall clock, no global rand, no map iteration. Same seed and
//     config, same schedule, byte for byte (TraceDigest).
//   - The Engine executes the schedule across worker lanes keyed by
//     hash(UE), so each UE's operations run in generation order even
//     though different UEs proceed concurrently. The final logical UE
//     table state is therefore seed-deterministic too (StateDigest),
//     while wall-clock timings (latency histograms, events/sec) are
//     measurements and vary run to run.
//
// Open-loop mode paces the schedule at a target rate under a bounded
// in-flight admission window (backpressure stalls are counted rather than
// letting the queue grow without bound); closed-loop mode lets each lane
// issue its next operation as soon as the previous one completes. Arrival
// mixes are configurable directly (Mix) or derived from an
// internal/ltetrace diurnal model's per-BS bearer/attach/handover rates
// (MixFromLTE).
//
// The ring is the repo's one test topology, and cluster.go its only
// builder: one body lays the [lo, hi) slice of an N-region ring of
// diamonds. BuildRegionSlice is that body for one region process of a
// distributed run; BuildCluster is the full slice [0, N) under an
// in-process root, and internal/chaos builds through it too. The
// launcher's FinishDistRoot stitches the ring from the same constants.
// A failover-under-fire run crashes the HA master on a FailoverSchedule
// (failover.go).
//
// cmd/loadgen wires the engine to BuildCluster and emits
// BENCH_workload.json: sustained events/sec, p50/p99 latency per
// operation type, and the replay digests.
package workload
