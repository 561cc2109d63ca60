package main

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
)

// metricsPkgPath is the runtime-metrics package whose constructors the
// metricname analyzer watches.
const metricsPkgPath = "repro/internal/metrics"

// prodMetricRegistry is the single source of truth for metric names, per
// package: every metrics.NewCounter / metrics.NewDurationHist name must be
// a string literal drawn from here, and every registered name must be
// minted by its package. A typo'd name today silently creates a fresh
// counter and the dashboards lie; an unminted entry is a dashboard row
// that can never move.
var prodMetricRegistry = map[string]map[string]bool{
	"repro/internal/core": {
		"core.southbound.batches":           true,
		"core.southbound.flowmods":          true,
		"core.southbound.barriers":          true,
		"core.southbound.barrier_retries":   true,
		"core.southbound.sync_roundtrips":   true,
		"core.southbound.deadline_wakeups":  true,
		"core.southbound.flush_rollbacks":   true,
		"core.southbound.flush_latency":     true,
		"core.southbound.rtt_samples":       true,
		"core.southbound.rtt_observed":      true,
		"core.southbound.rtt_timeout":       true,
		"core.southbound.rtt_stale_replies": true,
		"core.discovery.probes":             true,
		"core.discovery.probe_misses":       true,
		"core.discovery.suspects":           true,
		"core.discovery.rediscoveries":      true,
		"core.pathsetup.setup_latency":      true,
		"core.pathsetup.teardown_latency":   true,
		"core.pathsetup.reroute_latency":    true,
		"core.pathsetup.reused":             true,
		"core.graph.cache_hits":             true,
		"core.graph.cache_misses":           true,
		"core.graph.rebuilds":               true,
		"core.graph.build_latency":          true,
	},
	"repro/internal/routing": {
		"routing.path_memo_hits":   true,
		"routing.path_memo_misses": true,
	},
	"repro/internal/reca": {
		"reca.compute.count":   true,
		"reca.compute.latency": true,
		"reca.fabric.latency":  true,
	},
	"repro/internal/ha": {
		"ha.promotions":        true,
		"ha.promotion_latency": true,
		"ha.redone_entries":    true,
		"ha.replayed_entries":  true,
		"ha.snapshots":         true,
		"ha.snapshot_bytes":    true,
		"ha.truncated_entries": true,
	},
	"repro/internal/southbound": {
		"southbound.dropped_sends": true,
	},
	"repro/internal/netem": {
		"netem.sent":              true,
		"netem.delivered":         true,
		"netem.dropped_loss":      true,
		"netem.dropped_overflow":  true,
		"netem.dropped_partition": true,
		"netem.reordered":         true,
		"netem.delay":             true,
		"netem.sched_wakeups":     true,
	},
}

// metricname enforces the metric-name registry: counter/histogram names
// must be string literals, the literal must be registered for the package,
// and every registered name must actually be minted. A package that calls
// the metrics constructors without a registry entry is flagged at each
// call — growing a new metrics surface means growing the registry with it.
func metricname(p *Package, registry map[string]map[string]bool, metricsPkg string) []Finding {
	known := registry[p.Path]
	minted := make(map[string]bool)
	var out []Finding
	var anchor token.Position
	for _, f := range p.Files {
		if anchor.Line == 0 {
			// Unminted-registry findings anchor at the first file's package
			// clause — they have no call site to point at.
			anchor = p.Fset.Position(f.Name.Pos())
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, fn := pkgFunc(p, call)
			if pkg != metricsPkg || (fn != "NewCounter" && fn != "NewDurationHist") {
				return true
			}
			pos := p.Fset.Position(call.Pos())
			if len(call.Args) < 1 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				out = append(out, Finding{Pos: pos, Check: "metricname",
					Message: "metric name must be a string literal from the package registry, not a computed value"})
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			minted[name] = true
			switch {
			case known == nil:
				out = append(out, Finding{Pos: pos, Check: "metricname",
					Message: "package " + p.Path + " has no metric-name registry entry; register its names in prodMetricRegistry"})
			case !known[name]:
				out = append(out, Finding{Pos: pos, Check: "metricname",
					Message: "metric name " + strconv.Quote(name) + " is not in the package registry; fix the typo or register it"})
			}
			return true
		})
	}
	if known != nil {
		names := make([]string, 0, len(known))
		for n := range known {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if !minted[n] {
				out = append(out, Finding{Pos: anchor, Check: "metricname",
					Message: "registered metric " + strconv.Quote(n) + " is never created in this package; remove the dead registry entry"})
			}
		}
	}
	return out
}
