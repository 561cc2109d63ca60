package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestJudge(t *testing.T) {
	lat := metricDef{name: "setup_p50_ms", better: lower, bound: 0.10}
	rate := metricDef{name: "events_per_s", better: higher, bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 100, 125, 75, 100, 120, 85, 100}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"same", lat, steady, steady, vOK},
		{"latency up 5% within bound", lat, steady, scale(steady, 1.05), vOK},
		{"latency up 20%", lat, steady, scale(steady, 1.20), vRegression},
		{"latency down 20% is not a regression", lat, steady, scale(steady, 0.80), vOK},
		{"rate down 20%", rate, steady, scale(steady, 0.80), vRegression},
		{"rate up 20% is not a regression", rate, steady, scale(steady, 1.20), vOK},
		{"spread wider than the bound", lat, noisy, noisy, vUnresolved},
		{"spread wider than the bound hides a 20% rise", lat, noisy, scale(noisy, 1.2), vUnresolved},
		{"noisy but every run better", lat, noisy, scale(noisy, 0.5), vBetter},
		{"single runs compare on the medians alone", lat, []float64{100}, []float64{120}, vRegression},
	} {
		if got, _, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// compareFiles compares failures exactly: one more failed op on the
// change side is a regression whatever the metrics say.
func TestCompareFilesFailedExact(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failed int64) string {
		path := filepath.Join(dir, name)
		for _, sp := range specs {
			got := map[string]float64{}
			for _, d := range endToEnd {
				got[d.name] = 1
			}
			m, _ := valuesOf(endToEnd, got)
			rec := &record{Workload: sp.name, Correct: true, Attempted: 100, Failed: failed, Metrics: m}
			for i := 0; i < 2; i++ {
				if err := appendJSONLine(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()

	clean, dirty := write("a.jsonl", 0), write("b.jsonl", 1)
	if got := compareFiles(clean, clean); got != 0 {
		t.Errorf("identical files: status %d, want 0", got)
	}
	if got := compareFiles(clean, dirty); got != 1 {
		t.Errorf("one more failure: status %d, want 1", got)
	}
	if got := compareFiles(dirty, clean); got != 0 {
		t.Errorf("one failure fewer: status %d, want 0", got)
	}
}
