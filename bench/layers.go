package main

import (
	"time"

	"repro/internal/workload"
)

// layerInput is everything a traced run measured that the per-layer
// metrics are computed from.
type layerInput struct {
	*tallied
	sp       spec
	sys      *system
	d        delta
	flaps    []flapRec
	inflight float64
	// traceSeg is the length of one tracing slice of the window; odd
	// slices were traced. tracedEvents (in tallied) completed in those:
	// the base for what only the connection wrappers can count.
	traceSeg time.Duration
	l        *load
	m0       int64
}

// per divides, reporting 0 for an empty base: a layer the workload
// bypasses did no work, and that zero is the prediction being checked.
func per(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// orZero maps "no samples" to 0 for classes a workload does not have.
func orZero(d *dist, p float64) float64 {
	if d.n() == 0 {
		return 0
	}
	return d.percentile(p)
}

// layerMetrics fills got with every counter- and wrapper-derived
// per-layer metric. All are measured from outside the program: deltas of
// the counters and histograms it already exports, the harness's wrappers
// on the root↔child connections, and the Go runtime's own metrics.
func layerMetrics(got map[string]float64, in layerInput) {
	d, ev := in.d, float64(in.events)
	kev := ev / 1000

	got["core.setup_mean_us"] = d.histMeanUs("core.pathsetup.setup_latency")
	got["core.teardown_mean_us"] = d.histMeanUs("core.pathsetup.teardown_latency")
	got["core.flush_mean_us"] = d.histMeanUs("core.southbound.flush_latency")
	got["core.flowmods_per_event"] = per(d.counter("core.southbound.flowmods"), ev)
	got["core.batches_per_event"] = per(d.counter("core.southbound.batches"), ev)
	got["core.barriers_per_event"] = per(d.counter("core.southbound.barriers"), ev)
	got["core.barrier_retries_per_kevent"] = per(d.counter("core.southbound.barrier_retries"), kev)
	got["core.stale_replies_per_kevent"] = per(d.counter("core.southbound.rtt_stale_replies"), kev)

	hits, misses := d.counter("core.graph.cache_hits"), d.counter("core.graph.cache_misses")
	nflaps := float64(len(in.flaps))
	got["core.graph_hit_share"] = per(hits, hits+misses)
	got["core.graph_rebuilds_per_flap"] = per(d.counter("core.graph.rebuilds"), nflaps)
	got["core.graph_build_mean_us"] = d.histMeanUs("core.graph.build_latency")
	got["reca.computes_per_flap"] = per(d.counter("reca.compute.count"), nflaps)
	got["reca.compute_mean_ms"] = d.histMeanUs("reca.compute.latency") / 1e3

	var paths, inactive, queued float64
	var repairTime time.Duration
	for _, f := range in.flaps {
		queued += float64(f.repaired + f.inactive + f.unrouted)
		inactive += float64(f.inactive)
		if f.outlastedLoad {
			continue // its tail ran on an idle tree
		}
		paths += float64(f.repaired)
		repairTime += f.repair
	}
	got["core.repair_paths_per_s"] = per(paths, repairTime.Seconds())
	got["core.reroute_us_per_path"] = d.histMeanUs("core.pathsetup.reroute_latency")
	got["core.repair_inactive_share"] = per(inactive, queued)

	got["netem.sent_per_event"] = per(d.counter("netem.sent"), ev)
	got["netem.delay_mean_us"] = d.histMeanUs("netem.delay")
	got["netem.dropped"] = d.counter("netem.dropped_loss") + d.counter("netem.dropped_overflow") + d.counter("netem.dropped_partition")

	var frames, bytes, reads, writes, sent, recvd, peerReqs float64
	var fence dist
	var srtt time.Duration
	for _, c := range in.sys.links {
		sent += float64(c.sent.Load())
		recvd += float64(c.recvd.Load())
		peerReqs += float64(c.peerReqs.Load())
		reads += float64(c.sock.reads.Load())
		writes += float64(c.sock.writes.Load())
		bytes += float64(c.sock.rbytes.Load() + c.sock.wbytes.Load())
		for _, rtt := range c.fenceRTT {
			fence.add(rtt)
		}
	}
	for _, dev := range in.sys.rootDevs {
		s, _, _ := dev.RTTEstimate()
		srtt += s
	}
	frames = sent + recvd
	tev := float64(in.tracedEvents)
	got["southbound.frames_per_event"] = per(frames, tev)
	got["southbound.bytes_per_event"] = per(bytes, tev)
	got["southbound.write_syscalls_per_frame"] = per(writes, sent)
	got["southbound.read_syscalls_per_frame"] = per(reads, recvd)
	got["northbound.fence_rtt_p50_ms"] = orZero(&fence, 50)
	got["northbound.fence_rtt_p90_ms"] = orZero(&fence, 90)
	got["northbound.peer_requests_per_event"] = per(peerReqs, tev)
	got["northbound.srtt_ms"] = per(float64(srtt)/1e6, float64(len(in.sys.rootDevs)))

	got["go_runtime.allocs_per_event"] = per(d.rt(rtAllocObjects), ev)
	got["go_runtime.alloc_bytes_per_event"] = per(d.rt(rtAllocBytes), ev)
	got["go_runtime.gc_cpu_share"] = per(d.rt(rtGCCPU), d.rt(rtTotalCPU))
	got["go_runtime.gc_cycles"] = d.rt(rtGCCycles)
	got["go_runtime.heap_live_mb"] = d.b.rt[rtHeapLive] / (1 << 20)
	got["go_runtime.mutex_wait_us_per_event"] = per(d.rt(rtMutexWait)*1e6, ev)
	got["go_runtime.sched_latency_p99_us"] = d.schedP99Us()

	got["driver.gen_lag_p99_ms"] = orZero(&in.lags, 99)
	got["driver.inflight_mean"] = in.inflight
	got["driver.setup_p99_ms"] = in.cl.setup.percentile(99)
	got["driver.ho_p90_ms"] = in.cl.ho.percentile(90)
	got["driver.ho_inter_p90_ms"] = orZero(&in.cl.hoInter, 90)
	got["driver.ho_inter_p99_ms"] = orZero(&in.cl.hoInter, 99)
	got["driver.trace_overhead_share"] = traceOverhead(in)
}

// traceOverhead is the share of median setup latency the connection
// wrappers add: the traced (odd) slices of the window against the
// untraced (even) ones. Only a TCP tree has anything wrapped, and the
// only one is open loop, where the pacer fixes the rate, so latency is
// what tracing can move. Interleaving the two cancels drift in the
// workload; what remains includes slice-to-slice noise, so values within
// about ±0.02 of zero mean "below resolution". Elsewhere nothing is
// traced in the window (op spans are written from the driver's own
// records afterwards) and the overhead is 0 by construction.
func traceOverhead(in layerInput) float64 {
	if len(in.sys.links) == 0 {
		return 0
	}
	var on, off dist
	for i := in.sp.warm; i < len(in.l.ops); i++ {
		r := &in.l.recs[i]
		k := in.l.ops[i].Kind
		if r.end == 0 || r.failed || (k != workload.OpAttach && k != workload.OpBearerSetup) {
			continue
		}
		if (r.from-in.m0)/int64(in.traceSeg)%2 == 1 {
			on.add(time.Duration(r.end - r.from))
		} else {
			off.add(time.Duration(r.end - r.from))
		}
	}
	if on.n() == 0 || off.n() == 0 {
		return 0
	}
	return on.percentile(50)/off.percentile(50) - 1
}
