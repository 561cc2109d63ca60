package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; unknown keys are rejected.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.go are what the program measures. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings", len(bf.Command))
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(specs) || len(specs) != 4 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program, want 4", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		name("workload", w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q differs from the program's %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program (limit 16)", len(bf.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		name("end-to-end", m.Name)
		d := endToEnd[i]
		if m.Bound == nil {
			t.Fatalf("%s: no bound", m.Name)
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || *m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v (bound %g) differs from the program's %+v", i, m, *m.Bound, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
		maxBound = max(maxBound, d.bound)
	}
	if d := endToEnd[0]; d.name != "setup_s" || d.unit != "s" || d.better != lower || d.bound != maxBound {
		t.Errorf("setup_s must be present, in s, lower-is-better, with the largest bound; got %+v", d)
	}

	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (limit 128)", len(bf.PerLayer), len(perLayer))
	}
	e2e, wl := map[string]bool{}, map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	for _, s := range specs {
		wl[s.name] = true
	}
	for i, m := range bf.PerLayer {
		name("per-layer", m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v differs from the program's %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if d.better != lower && d.better != higher {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		// The prediction: every per-layer metric outside the driver's own
		// names the end-to-end metric it should move and the workload.
		if strings.HasPrefix(d.name, "driver.") {
			continue
		}
		if !e2e[d.moves] || !wl[d.on] {
			t.Errorf("%s: should move %q on %q, which do not both exist", d.name, d.moves, d.on)
		}
		if d.bypass != "" && (!wl[d.bypass] || d.bypass == d.on) {
			t.Errorf("%s: bypass workload %q", d.name, d.bypass)
		}
	}
}

// The README carries the metric → layer → prediction table by hand; it
// must at least name every metric and workload.
func TestREADMENamesEverything(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, s := range specs {
		if !strings.Contains(readme, "`"+s.name+"`") {
			t.Errorf("README.md does not mention workload %s", s.name)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !strings.Contains(readme, "`"+d.name+"`") {
				t.Errorf("README.md does not mention metric %s", d.name)
			}
		}
	}
}
