// Command softmowlint enforces the repository's cross-cutting invariants as
// compile-gated static analysis, using only the standard library (go/parser,
// go/ast, go/types with a recursive source loader — the stdlib-only
// precedent set by cmd/docscheck). Eight analyzers run over ./internal/...
// and ./cmd/...:
//
//   - lockguard: struct fields annotated `// guarded by <mutexField>` may
//     only be accessed in functions that lock that mutex on the same base
//     expression, or in helpers named *Locked.
//   - determinism: seed-replay-critical packages must not read the wall
//     clock, use the global math/rand generator, or let map iteration order
//     reach replayable behavior (append without a later sort, channel or
//     southbound sends inside a map range).
//   - layering: outside conndevice.go/batch.go, internal/core must not
//     construct raw TypeFlowMod/TypeFlowModBatch/TypeBarrier* messages —
//     rule programming stays behind the batched, rollback-safe pipeline —
//     and nowhere may it call dataplane's (*Network).RemoveRulesOwner: a
//     delete command means what southbound.ApplyFlowMod makes it mean.
//     Module-wide, no package may import encoding/gob: the southbound
//     binary codec is the only wire format.
//   - errdiscard: no `_ =` or bare-statement discard of an error under
//     internal/ without an annotation stating why.
//   - wireparity: every southbound.MsgType constant must have an appendBody
//     encode case, a decodeBody decode case, a committed FuzzFrameDecode
//     corpus seed, and a reference in the package tests — codec coverage
//     cannot drift from the message set.
//   - gospawn: every go statement under internal/ must spawn a body tied to
//     a tracked lifecycle (WaitGroup Done, done/stop signal-channel receive,
//     channel range, or completion close), or carry an annotation saying
//     why fire-and-forget is safe.
//   - metricname: metrics counter/histogram names must be string literals
//     drawn from the per-package registry of known names, and every
//     registered name must be minted — a typo creates a silent new counter
//     and the dashboards lie.
//   - staleallow: a //softmow:allow annotation that no longer suppresses
//     any finding is itself a finding, keeping the suppression inventory
//     honest as code moves.
//
// Findings are suppressed in source with `//softmow:allow <check> <reason>`
// on the offending line or the line above; the reason is mandatory.
//
// Usage:
//
//	go run ./cmd/softmowlint [-stats] [-report file] [packages...]
//
// With no arguments every package under internal/ and cmd/ is checked
// (testdata trees excluded). -stats prints per-analyzer finding counts and
// wall time; -report writes the same table (plus every finding) to a file
// for CI artifacts. Exit status is 1 when any unsuppressed finding is
// reported and 2 when a package fails to load or type-check.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// determinismPkgs lists the seed-replay-critical packages: everything the
// chaos harness's byte-identical seed replay flows through (core rule
// programming, the harness itself, the wire protocol, the virtual clock)
// plus the NIB, whose accessor and notification order reaches the replay
// log, the workload engine, whose schedule and state digests must be
// pure functions of (seed, config), and the HA snapshot/promotion layer,
// whose checkpoint and redo order the failover smoke replays byte-for-byte,
// and the northbound wire link, whose message and interdomain push order
// the distributed replay-digest comparison depends on, and the netem
// impairment model, whose per-link drop/jitter streams must be pure
// functions of (seed, profile) for impaired-run digests to replay.
var determinismPkgs = map[string]bool{
	"repro/internal/core":       true,
	"repro/internal/chaos":      true,
	"repro/internal/southbound": true,
	"repro/internal/simnet":     true,
	"repro/internal/nib":        true,
	"repro/internal/workload":   true,
	"repro/internal/ha":         true,
	"repro/internal/northbound": true,
	"repro/internal/netem":      true,
}

// analyzerNames lists every analyzer in run order, for the stats table.
var analyzerNames = []string{
	"lockguard", "determinism", "layering", "errdiscard",
	"wireparity", "gospawn", "metricname", "staleallow",
}

// lintStats accumulates per-analyzer finding counts and wall time across a
// run; nil disables collection.
type lintStats struct {
	findings map[string]int
	elapsed  map[string]time.Duration
	packages int
}

func newLintStats() *lintStats {
	return &lintStats{findings: make(map[string]int), elapsed: make(map[string]time.Duration)}
}

// table renders the per-analyzer summary the -stats flag and the CI
// report artifact show.
func (st *lintStats) table(total time.Duration) string {
	var b strings.Builder
	all := 0
	for _, n := range st.findings {
		all += n
	}
	fmt.Fprintf(&b, "softmowlint: %d analyzers, %d packages, %d finding(s), %v total\n",
		len(analyzerNames), st.packages, all, total.Round(time.Millisecond))
	names := append([]string(nil), analyzerNames...)
	if st.findings["suppression"] > 0 {
		names = append(names, "suppression")
	}
	for _, name := range names {
		fmt.Fprintf(&b, "  %-12s %4d finding(s)  %8v\n",
			name, st.findings[name], st.elapsed[name].Round(time.Millisecond))
	}
	return b.String()
}

// runConfigured executes every analyzer that applies to the package under
// the production configuration, filters suppressed findings, and reports
// stale suppressions. st may be nil.
func runConfigured(p *Package, st *lintStats) []Finding {
	var fs []Finding
	run := func(name string, f func() []Finding) {
		start := time.Now()
		fs = append(fs, f()...)
		if st != nil {
			st.elapsed[name] += time.Since(start)
		}
	}
	run("lockguard", func() []Finding { return lockguard(p) })
	if determinismPkgs[p.Path] {
		run("determinism", func() []Finding { return determinism(p) })
	}
	run("layering", func() []Finding {
		return append(layering(p, coreLayering), importBan(p, bannedImports)...)
	})
	if strings.HasPrefix(p.Path, "repro/internal/") {
		run("errdiscard", func() []Finding { return errdiscard(p, "repro/") })
		run("gospawn", func() []Finding { return gospawn(p) })
	}
	run("wireparity", func() []Finding { return wireparity(p, southboundWireparity) })
	run("metricname", func() []Finding { return metricname(p, prodMetricRegistry, metricsPkgPath) })
	var out []Finding
	run("staleallow", func() []Finding { out = applySuppressions(p, fs); return nil })
	if st != nil {
		st.packages++
		for _, f := range out {
			st.findings[f.Check]++
		}
	}
	return out
}

// listPackages enumerates package import paths under the given roots
// (directories relative to repoRoot), skipping testdata trees and
// directories without non-test Go files.
func listPackages(repoRoot, module string, roots []string) ([]string, error) {
	var out []string
	for _, root := range roots {
		base := filepath.Join(repoRoot, root)
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			entries, err := os.ReadDir(path)
			if err != nil {
				return err
			}
			for _, e := range entries {
				n := e.Name()
				if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
					rel, err := filepath.Rel(repoRoot, path)
					if err != nil {
						return err
					}
					out = append(out, module+"/"+filepath.ToSlash(rel))
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func main() {
	stats := flag.Bool("stats", false, "print per-analyzer finding counts and wall time")
	report := flag.String("report", "", "write findings and the per-analyzer table to this file")
	flag.Parse()
	start := time.Now()

	repoRoot, module, err := findRepoRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "softmowlint:", err)
		os.Exit(2)
	}
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs, err = listPackages(repoRoot, module, []string{"internal", "cmd"})
		if err != nil {
			fmt.Fprintln(os.Stderr, "softmowlint:", err)
			os.Exit(2)
		}
	}

	loader := NewLoader(repoRoot, module)
	st := newLintStats()
	loadFailed := false
	var findings []Finding
	for _, ip := range pkgs {
		p, err := loader.Load(ip)
		if err != nil {
			fmt.Fprintln(os.Stderr, "softmowlint:", err)
			loadFailed = true
			continue
		}
		findings = append(findings, runConfigured(p, st)...)
	}
	sortFindings(findings)
	var lines strings.Builder
	for _, f := range findings {
		rel := f.Pos.Filename
		if r, err := filepath.Rel(repoRoot, rel); err == nil {
			rel = r
		}
		fmt.Fprintf(&lines, "%s:%d:%d: [%s] %s\n", rel, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
	}
	fmt.Fprint(os.Stderr, lines.String())
	table := st.table(time.Since(start))
	if *stats {
		fmt.Fprint(os.Stderr, table)
	}
	if *report != "" {
		if err := os.WriteFile(*report, []byte(table+lines.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "softmowlint: write report:", err)
		}
	}
	switch {
	case loadFailed:
		os.Exit(2)
	case len(findings) > 0:
		fmt.Fprintf(os.Stderr, "softmowlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
