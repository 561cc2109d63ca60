package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/workload"
)

// runOpts is one workload run's input.
type runOpts struct {
	spec   spec
	seed   int64
	window time.Duration
	scale  float64
	traced bool
	probe  time.Duration // per-probe loop length in a traced run
	outDir string        // where a traced run writes its span file
}

// record is one run's full result: what the contract's last line carries
// plus provenance and the informational numbers, one JSON line of -out.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Scale      float64           `json:"scale"`
	Traced     bool              `json:"traced"`
	Provenance map[string]string `json:"provenance"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Metrics    map[string]value  `json:"metrics"`
	// Info holds what is printed but not gated: per-class distributions,
	// verify time, digests, the first distinct error strings.
	Info   map[string]string `json:"info"`
	Errors []string          `json:"errors,omitempty"`
}

// classes are the op classes latency is reported for.
type classes struct {
	setup, release, ho, hoIntra, hoInter dist
}

func (c *classes) of(k workload.OpKind) []*dist {
	switch k {
	case workload.OpAttach, workload.OpBearerSetup:
		return []*dist{&c.setup}
	case workload.OpBearerTeardown, workload.OpDetach:
		return []*dist{&c.release}
	case workload.OpHandoverIntra:
		return []*dist{&c.ho, &c.hoIntra}
	default:
		return []*dist{&c.ho, &c.hoInter}
	}
}

func runWorkload(o runOpts) (*record, error) {
	t0 := time.Now()
	sp := o.spec.scaled(o.scale)
	cfg := sp.config(o.seed, sp.events(o.window))
	ops, err := workload.GenerateSchedule(cfg)
	if err != nil {
		return nil, err
	}
	if len(ops) < cfg.Events {
		return nil, fmt.Errorf("%s: schedule dried up at %d of %d events", sp.name, len(ops), cfg.Events)
	}
	var tr *tracer
	if o.traced {
		tr = &tracer{epoch: t0}
	}
	var sys *system
	if sp.tcp {
		sys, err = buildTCPTree(cfg, tr)
	} else {
		sys, err = buildInProcess(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", sp.name, err)
	}
	closeSys := sync.OnceFunc(sys.close)
	defer closeSys()

	// Warm-up: the schedule prefix, closed loop, unmeasured. It fills the
	// UE tables, flow tables and graph caches the measured part runs on.
	l := &load{sys: sys, ops: ops, recs: make([]opRec, len(ops)), epoch: t0}
	ran := l.closed(l.queues(0, sp.warm), time.Time{})
	if err := sys.drain(10 * time.Second); err != nil {
		return nil, fmt.Errorf("%s: quiesce after warm-up: %w", sp.name, err)
	}
	runtime.GC()
	setup := time.Since(t0)

	info := map[string]string{}
	correct := true
	if o.scale >= 1 && o.seed == 1 {
		// The state reached at the end of the default seed's warm-up is
		// pinned: for mixed_pipe to the repo's canonical replay digests,
		// so the benchmark measures the system the rest of the repo pins.
		state, _ := sys.stateDigest()
		at := [2]string{workload.TraceDigest(ops[:sp.warm]), state}
		info["boundary_digests"] = at[0] + "/" + at[1]
		if pin := boundaryPins[sp.name]; at != pin {
			correct = false
			info["boundary"] = fmt.Sprintf("warm-up boundary digests differ from the pinned %s/%s", pin[0], pin[1])
		}
	}

	// Measured window.
	var flaps *flapper
	if sp.flap {
		flaps = startFlapper(sys, l, flapEvery(o.scale))
	}
	seg := segmentLen(o.window)
	// The connection wrappers of a traced TCP tree record in alternate
	// slices, much shorter than the GC cycle, whose phases recur at the
	// same offsets run after run and would otherwise bias one parity.
	traceSeg := max(o.window/60, 10*time.Millisecond)
	stopToggle := func() {}
	if len(sys.links) > 0 {
		stopToggle = tr.alternate(traceSeg)
	}
	before := takeSnapshot()
	m0 := l.now()
	var inflight float64
	if sp.rate > 0 {
		inflight = l.open(sp.warm, len(ops), sp.rate)
		ran = appendQueues(ran, l.queues(sp.warm, len(ops)))
	} else {
		measured := l.closed(l.queues(sp.warm, len(ops)), t0.Add(time.Duration(m0)+o.window))
		ran = appendQueues(ran, measured)
	}
	mEnd := l.now()
	after := takeSnapshot()
	stopToggle()
	var flapRecs []flapRec
	if flaps != nil {
		if flapRecs, err = flaps.wait(); err != nil {
			return nil, err
		}
	}
	rss := peakRSSMB()

	t := tally(l, sp, m0, tr, traceSeg)
	cl, events := &t.cl, t.events
	if events == 0 {
		return nil, fmt.Errorf("%s: no op completed in the window", sp.name)
	}
	if sp.rate == 0 && mEnd-m0 < int64(o.window) {
		info["exhausted"] = fmt.Sprintf("the schedule ran out after %.2fs: raise capRate", float64(mEnd-m0)/1e9)
	}
	rates := segmentRates(t.ends, time.Duration(mEnd-m0), seg)
	d := delta{a: before, b: after}

	// The two handover classes are gated apart: pooled, the many cheap
	// intra-region handovers of the canonical mix would hide a regression
	// of the root-delegation path. A mix without inter-region handovers
	// reports all its handovers in that metric's place.
	hoInter := &cl.hoInter
	if sp.mix.HandoverInter == 0 {
		hoInter = &cl.ho
	}
	got := map[string]float64{
		"setup_s":          setup.Seconds(),
		"events_per_s":     float64(events) / (float64(mEnd-m0) / 1e9),
		"cpu_us_per_event": float64(d.cpu()) / 1e3 / float64(events),
		"setup_p50_ms":     cl.setup.percentile(50),
		"setup_p90_ms":     cl.setup.percentile(90),
		"release_p50_ms":   cl.release.percentile(50),
		"ho_intra_p50_ms":  cl.hoIntra.percentile(50),
		"ho_inter_p50_ms":  hoInter.percentile(50),
		"peak_rss_mb":      rss,
	}
	info["events"] = fmt.Sprint(events)
	info["events_per_s_segment_median"] = fmt.Sprintf("%.1f", median(rates))
	info["segment_rates"] = fmt.Sprintf("%.0f", rates)
	info["setup"] = cl.setup.String()
	info["release"] = cl.release.String()
	info["ho"] = cl.ho.String()
	info["ho_intra"] = cl.hoIntra.String()
	info["ho_inter"] = cl.hoInter.String()
	if sp.rate > 0 {
		info["gen_lag"] = t.lags.String()
	}

	var repairPaths, unrouted int64
	for _, f := range flapRecs {
		repairPaths += int64(f.repaired + f.unrouted)
		unrouted += int64(f.unrouted)
	}
	if sp.flap {
		info["flaps"] = describeFlaps(flapRecs)
	}
	rec := &record{
		Workload: sp.name, Seed: o.seed, Seconds: o.window.Seconds(), Scale: o.scale,
		Traced: o.traced, Provenance: provenance(o.seed),
		Attempted: countRan(ran) + repairPaths,
		Failed:    l.failures.Load() + unrouted,
		Info:      info, Errors: l.errs,
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
		layerMetrics(got, layerInput{
			tallied: t, sp: sp, sys: sys, d: d, flaps: flapRecs, inflight: inflight,
			traceSeg: traceSeg, l: l, m0: m0,
		})
		tr.addFlapSpans(flapRecs)
		// Spans go to disk before the tree is torn down: op spans are
		// streamed straight from the load's records.
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.outDir, "trace-"+sp.name+".jsonl")
		n, err := tr.write(path, l, sp.warm)
		if err != nil {
			return nil, err
		}
		info["trace_file"] = fmt.Sprintf("%s (%d spans)", path, n)
	}

	// Correctness: the final logical UE state must equal an independent
	// replay of exactly the ops that ran, on a fresh direct-device tree.
	// The measured tree is torn down first so the replay reuses its heap
	// instead of doubling the process's footprint.
	tv := time.Now()
	digest, ues := sys.stateDigest()
	closeSys()
	sys, l = nil, nil
	runtime.GC()
	wantDigest, wantUEs, err := replay(cfg, ops, ran)
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", sp.name, err)
	}
	info["verify_s"] = fmt.Sprintf("%.3f", time.Since(tv).Seconds())
	info["state_digest"] = digest
	info["final_ues"] = fmt.Sprint(ues)
	if digest != wantDigest || ues != wantUEs {
		correct = false
		info["verify"] = fmt.Sprintf("state %s/%d UEs, replay %s/%d UEs", digest, ues, wantDigest, wantUEs)
	}
	rec.Correct = correct

	if o.traced {
		probed, err := runProbes(o.probe)
		if err != nil {
			return nil, fmt.Errorf("%s: probes: %w", sp.name, err)
		}
		for name, v := range probed {
			got[name] = v
		}
	}
	var missing []string
	if rec.Metrics, missing = valuesOf(defs, got); len(missing) > 0 {
		return nil, fmt.Errorf("%s: metrics not measured: %s", sp.name, strings.Join(missing, ", "))
	}
	for name, v := range rec.Metrics {
		if math.IsNaN(v.Value) || (!o.traced && v.Value <= 0) {
			// An end-to-end metric is never 0: a zero is a reading that
			// failed (no samples, no /proc, no rusage), not a result.
			return nil, fmt.Errorf("%s: %s was not measured", sp.name, name)
		}
		if math.IsInf(v.Value, 1) {
			// More than the percentile's share of ops failed; JSON has no
			// infinity, and Failed already says why.
			rec.Metrics[name] = value{Value: math.MaxFloat64, Unit: v.Unit}
		}
	}
	return rec, nil
}

// tallied is the measured ops' records sorted out: the latency classes,
// completion times relative to the window's start, the open loop's pacer
// lateness, and counts — all completed events, and those that completed
// in a traced slice.
type tallied struct {
	cl                   classes
	ends                 []int64
	lags                 dist
	events, tracedEvents int
}

func tally(l *load, sp spec, m0 int64, tr *tracer, traceSeg time.Duration) *tallied {
	t := &tallied{}
	for i := sp.warm; i < len(l.ops); i++ {
		r := &l.recs[i]
		if r.end == 0 {
			continue
		}
		t.events++
		t.ends = append(t.ends, r.end-m0)
		if tr.tracedAt(r.end-m0, traceSeg) {
			t.tracedEvents++
		}
		for _, d := range t.cl.of(l.ops[i].Kind) {
			if r.failed {
				d.addFailed()
			} else {
				d.add(time.Duration(r.end - r.from))
			}
		}
		if sp.rate > 0 {
			t.lags.add(time.Duration(r.lagNs))
		}
	}
	return t
}

func appendQueues(a, b [][]int32) [][]int32 {
	for q := range a {
		a[q] = append(a[q], b[q]...)
	}
	return a
}

func countRan(qs [][]int32) (n int64) {
	for _, q := range qs {
		n += int64(len(q))
	}
	return n
}

// replay runs exactly the ops that ran — per lane, in lane order, which
// preserves every UE's own order — on a fresh tree with direct devices
// and the in-process parent link, one serial goroutine per lane, and
// returns the state it lands on.
func replay(cfg workload.Config, ops []workload.Op, ran [][]int32) (string, int, error) {
	cfg.ControlDelay = 0
	ref, err := buildInProcess(cfg)
	if err != nil {
		return "", 0, err
	}
	defer ref.close()
	var wg sync.WaitGroup
	for _, q := range ran {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range q {
				_ = ref.exec(&ops[i]) // a failure shows as a digest mismatch
			}
		}()
	}
	wg.Wait()
	digest, ues := ref.stateDigest()
	return digest, ues, nil
}

func describeFlaps(recs []flapRec) string {
	var b strings.Builder
	for _, f := range recs {
		fmt.Fprintf(&b, "[L%d %d paths in %.3fs, %d inactive, %d unrouted] ",
			f.region, f.repaired, f.repair.Seconds(), f.inactive, f.unrouted)
	}
	return strings.TrimSpace(b.String())
}

func provenance(seed int64) map[string]string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]string{
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"kernel":     strings.TrimSpace(string(kernel)),
		"seed":       fmt.Sprint(seed),
		"min_rto":    fenceMinRTO.String() + " on every ConnDevice, not the 5ms default (see relaxRTO)",
		"transport":  "in-memory pipes and host loopback TCP only; no real link is crossed",
	}
}

// print writes the human-readable result: every metric by name with its
// unit, then the informational lines.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d window=%.1fs traced=%v scale=%g\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Scale)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  # %s: %s\n", k, r.Info[k])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ! op error: %s\n", e)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d (%s)\n", r.Correct, r.Attempted, r.Failed, r.Provenance["transport"])
}
