GO ?= go

.PHONY: build test vet race fmt-check chaos check bench-test bench-smoke bench bench-workload smoke-dist smoke-failover smoke-impaired docs-check lint fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Fail when a Go file outside the analyzers' deliberately malformed
# fixtures is not gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l cmd internal bench *.go | grep -v testdata)"

# A longer randomized fault-injection run than the bounded tier-1 test;
# prints its seed so any violation can be replayed exactly.
chaos:
	$(GO) run ./cmd/chaos -events 1000

# Fail when an exported symbol under internal/... lacks a doc comment.
docs-check:
	$(GO) run ./cmd/docscheck internal

# Enforce the lock, determinism, layering, error-handling, wire-parity,
# goroutine-lifecycle, metric-name, test-only-code and stale-suppression
# invariants over ./internal/... and ./cmd/... (see DESIGN.md "Enforced
# invariants"); the test-only check loads the whole program, bench/
# included, and exits 2 when any of it fails to load.
# Prints per-analyzer finding counts and wall time, and writes the table
# plus every finding to lint-report.txt (uploaded as a CI artifact).
lint:
	$(GO) run ./cmd/softmowlint -stats -report lint-report.txt

# Fuzz the southbound binary frame decoder (seed corpus committed under
# internal/southbound/testdata/fuzz). CI runs the same invocation; raise
# FUZZTIME for longer local campaigns.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/southbound -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME)

# bench/ is its own module, so build/test/vet above never compile it.
# Vet it and run its own tests so a deleted or renamed symbol the
# benchmark uses fails here, not in the benchmark run.
bench-test:
	cd bench && $(GO) vet . && $(GO) test .

# The layer benchmarks behind BENCH_layers.json, one iteration each: they
# are run for real by `make bench`; this only keeps them from rotting.
LAYER_BENCH = BenchmarkFencedModPipe|BenchmarkPipeRoundTrip|BenchmarkWallSchedulerAt|BenchmarkHandoverKeep|BenchmarkFlowTableChurn
LAYER_PKGS = ./internal/core ./internal/southbound ./internal/netem ./internal/dataplane
bench-smoke:
	$(GO) test -run '^$$' -bench '$(LAYER_BENCH)' -benchtime=1x $(LAYER_PKGS)

check: fmt-check vet race docs-check lint bench-test bench-smoke

# Run the routing/abstraction/controller hot-path benchmarks and record the
# results as JSON lines in BENCH_routing.json (BenchmarkShortestPath is the
# path-memo hit, ...Cold the Dijkstra run behind a miss, RouteMemoParallel
# the hit at -cpu 1,2), and the layer benchmarks (fenced mod over Pipe +
# SwitchAgent behind a 200 us link, Pipe round trip, WallScheduler.At, the
# same-group handover inline and on a fresh goroutine, and an install plus
# owner delete on a 100k-rule flow table) in
# BENCH_layers.json — the committed baselines for spotting regressions;
# compare with `git diff`.
BENCH_CONFIG = printf '{"config":{"go_version":"%s","gomaxprocs":%s,"num_cpu":%s}}\n' \
	"$$($(GO) env GOVERSION)" "$${GOMAXPROCS:-$$(nproc)}" "$$(nproc)"
# One JSON object per benchmark line: the name without its -GOMAXPROCS
# suffix, the suffix as "cpu", and one key per reported unit (ns/op ->
# ns_op, B/op -> b_op, allocs/op -> allocs_op, wakeups/op -> wakeups_op).
BENCH_JSON = awk '/^Benchmark/ { cpu = 1; if (match($$1, /-[0-9]+$$/)) { cpu = substr($$1, RSTART + 1); $$1 = substr($$1, 1, RSTART - 1) } \
	printf("{\"name\":\"%s\",\"cpu\":%s,\"iters\":%s", $$1, cpu, $$2); \
	for (i = 3; i < NF; i += 2) { u = tolower($$(i+1)); gsub(/\//, "_", u); printf(",\"%s\":%s", u, $$i) } print "}" }'
bench:
	( $(BENCH_CONFIG); \
	  $(GO) test -run '^$$' -bench 'BenchmarkBuildGraph|BenchmarkShortestPath|BenchmarkMetricsFrom|BenchmarkCompute|BenchmarkRouteRecursive|BenchmarkGraphCacheHit|BenchmarkBearerSetup' \
	  -benchmem ./internal/routing ./internal/reca ./internal/core | $(BENCH_JSON); \
	  $(GO) test -run '^$$' -bench 'BenchmarkRouteMemoParallel' -cpu 1,2 -benchmem ./internal/routing | $(BENCH_JSON) ) | tee BENCH_routing.json
	( $(BENCH_CONFIG); \
	  $(GO) test -run '^$$' -bench '$(LAYER_BENCH)' -benchmem $(LAYER_PKGS) | $(BENCH_JSON) ) | tee BENCH_layers.json

# Run the deterministic UE workload driver at benchmark scale and record
# BENCH_workload.json: sustained events/sec, p50/p99 per op type, and
# replay digests (seed 1 at this scale lands on the pinned canonical
# digests 38b75103cf760429 / 904e505b89fcac36).
# Override scale with WORKLOAD_ARGS, e.g.
#   make bench-workload WORKLOAD_ARGS='-ues 100000 -events 400000 -regions 4'
WORKLOAD_ARGS ?= -seed 1 -regions 4 -ues 100000 -events 200000
bench-workload:
	$(GO) run ./cmd/loadgen $(WORKLOAD_ARGS) -out BENCH_workload.json

# Distributed smoke: a fixed-seed 2-process cluster over localhost TCP
# whose replay digests must match the in-process run of the same seed
# (the CI multi-process gate, runnable locally).
smoke-dist:
	$(GO) run ./cmd/loadgen -seed 7 -regions 2 -ues 5000 -events 20000 \
	  -procs 2 -verify-inproc -out /tmp/BENCH_workload_dist.json

# Failover smoke: a fixed-seed run that kills the HA master mid-workload
# and promotes the standby from an incremental snapshot. Run twice: both
# runs must land on identical replay digests, and each run's failover
# passes must match its own plain run (bounded loss = zero lost events).
smoke-failover:
	$(GO) run ./cmd/loadgen -seed 7 -regions 2 -ues 5000 -events 20000 \
	  -chaos-failover -out /tmp/BENCH_failover_a.json
	$(GO) run ./cmd/loadgen -seed 7 -regions 2 -ues 5000 -events 20000 \
	  -chaos-failover -out /tmp/BENCH_failover_b.json
	@python3 -c "import json; \
a = json.load(open('/tmp/BENCH_failover_a.json')); \
b = json.load(open('/tmp/BENCH_failover_b.json')); \
assert a['state_digest'] == b['state_digest'] and a['trace_digest'] == b['trace_digest'], 'failover smoke not replayable'; \
assert a['failover']['digests_match'] and b['failover']['digests_match'], 'failover run diverged from plain run'; \
print('failover smoke: digests identical, %.0fx replay reduction' % a['failover']['replay_reduction'])"

# Impaired-WAN smoke: the fixed-seed scenario matrix (clean / lossy /
# jittery / combined / scheduled partition), run twice. Every scenario
# must land on the clean run's replay digests with zero failures (loadgen
# enforces this per run), the two runs must be identical to each other,
# and the clean digests must stay pinned — both at the seed-7 smoke config
# and at the canonical bench config the ISSUE pins (38b75103cf760429 /
# 904e505b89fcac36), proving impairment plumbing moved no digest.
smoke-impaired:
	$(GO) run ./cmd/loadgen -seed 7 -regions 2 -ues 5000 -events 20000 \
	  -impair-matrix -out /tmp/BENCH_impaired_a.json
	$(GO) run ./cmd/loadgen -seed 7 -regions 2 -ues 5000 -events 20000 \
	  -impair-matrix -out /tmp/BENCH_impaired_b.json
	$(GO) run ./cmd/loadgen -seed 1 -regions 4 -ues 100000 -events 200000 \
	  -out /tmp/BENCH_impaired_canon.json
	@python3 -c "import json; \
a = json.load(open('/tmp/BENCH_impaired_a.json')); \
b = json.load(open('/tmp/BENCH_impaired_b.json')); \
c = json.load(open('/tmp/BENCH_impaired_canon.json')); \
assert a['trace_digest'] == 'e9b3b20e1c21f4a7' and a['state_digest'] == 'cc4d4d83bbeb638e', 'impaired smoke moved the seed-7 clean digests: %s %s' % (a['trace_digest'], a['state_digest']); \
assert c['trace_digest'] == '38b75103cf760429' and c['state_digest'] == '904e505b89fcac36', 'impaired smoke moved the pinned canonical digests: %s %s' % (c['trace_digest'], c['state_digest']); \
sa = {s['name']: s for s in a['impairment']['scenarios']}; \
sb = {s['name']: s for s in b['impairment']['scenarios']}; \
assert sa.keys() == sb.keys(), 'scenario sets differ'; \
mismatch = [n for n in sa if (sa[n]['trace_digest'], sa[n]['state_digest']) != (sb[n]['trace_digest'], sb[n]['state_digest'])]; \
assert not mismatch, 'impaired smoke not replayable: %s' % mismatch; \
part = sa['partitioned']['partition']; \
assert part['links_restored'] and part['rediscoveries'] > 0, 'partition scenario did not recover via rediscovery'; \
print('impaired smoke: %d scenarios, digests identical across runs, canonical digests pinned, partition recovered (%d suspects, %d rediscoveries)' % (len(sa), part['suspects'], part['rediscoveries']))"
