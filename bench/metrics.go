package main

// metricDef is one benchmark metric. The end-to-end ones carry the bound
// by which they may worsen; the per-layer ones carry the prediction made
// before measuring: which end-to-end metric the layer metric should move,
// on which workload, and on which workload it should move nothing because
// the workload bypasses the layer. BENCHMARK.json repeats name, unit,
// better and bound; schema_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	// per-layer only
	moves, on, bypass string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the controller tree would see. Every
// workload reports every one of them, so each is defined on all four:
// on a workload whose mix has no inter-region handover, ho_inter_p50_ms
// reads the handovers it has.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "events_per_s", unit: "1/s", better: higher, bound: 0.20},
	{name: "cpu_us_per_event", unit: "us", better: lower, bound: 0.24},
	{name: "setup_p50_ms", unit: "ms", better: lower, bound: 0.18},
	{name: "setup_p90_ms", unit: "ms", better: lower, bound: 0.22},
	{name: "release_p50_ms", unit: "ms", better: lower, bound: 0.24},
	{name: "ho_intra_p50_ms", unit: "ms", better: lower, bound: 0.20},
	{name: "ho_inter_p50_ms", unit: "ms", better: lower, bound: 0.20},
	{name: "peak_rss_mb", unit: "MB", better: lower, bound: 0.20},
}

// perLayer metrics come from a traced run: deltas of counters the program
// already exports, the harness's own connection wrappers and clocks, the
// Go runtime's metrics, and the isolated probes.
var perLayer = []metricDef{
	// core: rule programming per op.
	{name: "core.setup_mean_us", unit: "us", better: lower, moves: "setup_p50_ms", on: "mixed_pipe"},
	{name: "core.teardown_mean_us", unit: "us", better: lower, moves: "release_p50_ms", on: "mixed_pipe"},
	{name: "core.flush_mean_us", unit: "us", better: lower, moves: "setup_p50_ms", on: "mixed_pipe", bypass: "bearer_direct"},
	{name: "core.flowmods_per_event", unit: "1/event", better: lower, moves: "events_per_s", on: "mixed_pipe", bypass: "bearer_direct"},
	{name: "core.batches_per_event", unit: "1/event", better: lower, moves: "events_per_s", on: "mixed_pipe", bypass: "bearer_direct"},
	{name: "core.barriers_per_event", unit: "1/event", better: lower, moves: "setup_p50_ms", on: "mixed_pipe", bypass: "bearer_direct"},
	{name: "core.barrier_retries_per_kevent", unit: "1/kevent", better: lower, moves: "setup_p90_ms", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "core.stale_replies_per_kevent", unit: "1/kevent", better: lower, moves: "setup_p90_ms", on: "tree_tcp", bypass: "bearer_direct"},
	// core/reca: graph cache and abstraction under invalidation.
	{name: "core.graph_hit_share", unit: "share", better: higher, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "core.graph_rebuilds_per_flap", unit: "1/flap", better: lower, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "core.graph_build_mean_us", unit: "us", better: lower, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "reca.computes_per_flap", unit: "1/flap", better: lower, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "reca.compute_mean_ms", unit: "ms", better: lower, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	// core: repair.
	{name: "core.repair_paths_per_s", unit: "1/s", better: higher, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "core.reroute_us_per_path", unit: "us", better: lower, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "core.repair_inactive_share", unit: "share", better: lower, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	// netem: the impaired leaf↔switch legs.
	{name: "netem.sent_per_event", unit: "1/event", better: lower, moves: "setup_p50_ms", on: "mixed_pipe", bypass: "bearer_direct"},
	{name: "netem.delay_mean_us", unit: "us", better: lower, moves: "setup_p50_ms", on: "mixed_pipe", bypass: "bearer_direct"},
	{name: "netem.dropped", unit: "count", better: lower, moves: "setup_p90_ms", on: "mixed_pipe", bypass: "bearer_direct"},
	// southbound: the root↔child wire.
	{name: "southbound.frames_per_event", unit: "1/event", better: lower, moves: "cpu_us_per_event", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "southbound.bytes_per_event", unit: "B/event", better: lower, moves: "cpu_us_per_event", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "southbound.write_syscalls_per_frame", unit: "1/frame", better: lower, moves: "cpu_us_per_event", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "southbound.read_syscalls_per_frame", unit: "1/frame", better: lower, moves: "cpu_us_per_event", on: "tree_tcp", bypass: "bearer_direct"},
	// northbound: delegation over the wire.
	{name: "northbound.fence_rtt_p50_ms", unit: "ms", better: lower, moves: "ho_inter_p50_ms", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "northbound.fence_rtt_p90_ms", unit: "ms", better: lower, moves: "setup_p90_ms", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "northbound.peer_requests_per_event", unit: "1/event", better: lower, moves: "ho_inter_p50_ms", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "northbound.srtt_ms", unit: "ms", better: lower, moves: "setup_p90_ms", on: "tree_tcp", bypass: "bearer_direct"},
	// go_runtime: allocation, GC and scheduling pressure.
	{name: "go_runtime.allocs_per_event", unit: "1/event", better: lower, moves: "events_per_s", on: "bearer_direct"},
	{name: "go_runtime.alloc_bytes_per_event", unit: "B/event", better: lower, moves: "events_per_s", on: "bearer_direct"},
	{name: "go_runtime.gc_cpu_share", unit: "share", better: lower, moves: "cpu_us_per_event", on: "bearer_direct"},
	{name: "go_runtime.gc_cycles", unit: "count", better: lower, moves: "cpu_us_per_event", on: "bearer_direct"},
	{name: "go_runtime.heap_live_mb", unit: "MB", better: lower, moves: "peak_rss_mb", on: "mixed_pipe"},
	{name: "go_runtime.mutex_wait_us_per_event", unit: "us", better: lower, moves: "events_per_s", on: "bearer_direct"},
	{name: "go_runtime.sched_latency_p99_us", unit: "us", better: lower, moves: "setup_p90_ms", on: "mixed_pipe"},
	// driver: the harness's own health and the tails the end-to-end list
	// leaves out. Moves nothing.
	{name: "driver.gen_lag_p99_ms", unit: "ms", better: lower},
	{name: "driver.inflight_mean", unit: "count", better: lower},
	{name: "driver.setup_p99_ms", unit: "ms", better: lower},
	{name: "driver.ho_p90_ms", unit: "ms", better: lower},
	{name: "driver.ho_inter_p90_ms", unit: "ms", better: lower},
	{name: "driver.ho_inter_p99_ms", unit: "ms", better: lower},
	{name: "driver.trace_overhead_share", unit: "share", better: lower},
	// Isolated probes (probes.go): single-threaded timed loops.
	{name: "southbound.encode_ns_per_frame", unit: "ns", better: lower, moves: "cpu_us_per_event", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "southbound.decode_ns_per_frame", unit: "ns", better: lower, moves: "cpu_us_per_event", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "southbound.encode_allocs_per_frame", unit: "1/frame", better: lower, moves: "cpu_us_per_event", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "southbound.binconn_rtt_us", unit: "us", better: lower, moves: "ho_inter_p50_ms", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "southbound.pipe_rtt_us", unit: "us", better: lower, moves: "events_per_s", on: "mixed_pipe", bypass: "bearer_direct"},
	{name: "southbound.agent_batch_us", unit: "us", better: lower, moves: "events_per_s", on: "mixed_pipe", bypass: "bearer_direct"},
	{name: "netem.link_send_ns", unit: "ns", better: lower, moves: "cpu_us_per_event", on: "mixed_pipe", bypass: "bearer_direct"},
	{name: "netem.delay_overshoot_us", unit: "us", better: lower, moves: "setup_p50_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "dataplane.flowtable_add_ns", unit: "ns", better: lower, moves: "cpu_us_per_event", on: "bearer_direct"},
	{name: "dataplane.flowtable_remove_owner_ns", unit: "ns", better: lower, moves: "cpu_us_per_event", on: "bearer_direct"},
	{name: "dataplane.flowtable_lookup_ns", unit: "ns", better: lower, moves: "cpu_us_per_event", on: "bearer_direct"},
	{name: "routing.build_graph_leaf_us", unit: "us", better: lower, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "routing.build_graph_root_us", unit: "us", better: lower, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "routing.build_graph_leaf_allocs", unit: "count", better: lower, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "routing.shortest_path_leaf_us", unit: "us", better: lower, moves: "events_per_s", on: "bearer_direct"},
	{name: "routing.shortest_path_root_us", unit: "us", better: lower, moves: "ho_inter_p50_ms", on: "tree_tcp", bypass: "bearer_direct"},
	{name: "core.graph_hit_ns", unit: "ns", better: lower, moves: "events_per_s", on: "bearer_direct"},
	{name: "core.route_recursive_ns", unit: "ns", better: lower, moves: "events_per_s", on: "bearer_direct"},
	{name: "core.bearer_setup_direct_us", unit: "us", better: lower, moves: "events_per_s", on: "bearer_direct"},
	{name: "core.bearer_setup_direct_allocs", unit: "count", better: lower, moves: "events_per_s", on: "bearer_direct"},
	{name: "reca.compute_ms", unit: "ms", better: lower, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "nib.eventlog_append_ns", unit: "ns", better: lower, moves: "cpu_us_per_event", on: "flap_repair"},
	{name: "nib.eventlog_truncate_ns_per_entry", unit: "ns", better: lower, moves: "cpu_us_per_event", on: "flap_repair"},
	{name: "nib.set_link_up_ns", unit: "ns", better: lower, moves: "setup_p90_ms", on: "flap_repair", bypass: "bearer_direct"},
	{name: "metrics.hist_observe_ns", unit: "ns", better: lower, moves: "cpu_us_per_event", on: "bearer_direct"},
	{name: "workload.generate_ns_per_op", unit: "ns", better: lower, moves: "setup_s", on: "bearer_direct"},
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// valuesOf pairs measured numbers with the units their definitions give,
// failing on a metric that was not measured.
func valuesOf(defs []metricDef, got map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, missing
}
