package main

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// Every workload, untraced and traced, at a hundredth of its size with a
// half-second window: the whole path — build, warm-up, measure, flap,
// trace, probe, replay check — must run clean and report every metric.
// The runs share the process (and so its counters), which is fine for a
// smoke: only presence, correctness and zero failures are checked.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	t.Cleanup(func() {
		if el := time.Since(start); el > 10*time.Second && !raceBuild {
			t.Errorf("smoke took %v, budget 10s", el)
		}
	})
	dir := t.TempDir()
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", sp.name, traced), func(t *testing.T) {
				t.Parallel()
				smokeOne(t, sp, traced, filepath.Join(dir, sp.name))
			})
		}
	}
}

func smokeOne(t *testing.T, sp spec, traced bool, dir string) {
	rec, err := runWorkload(runOpts{
		spec: sp, seed: 3, scale: 0.01, window: 500 * time.Millisecond,
		traced: traced, probe: 2 * time.Millisecond, outDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d errors=%v info=%v",
			rec.Correct, rec.Attempted, rec.Failed, rec.Errors, rec.Info)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rec.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.unit {
			t.Errorf("metric %s = %+v (present %v)", d.name, v, ok)
		}
		if !traced && v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %g, must never be 0", d.name, v.Value)
		}
	}
}
