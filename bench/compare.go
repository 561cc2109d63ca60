package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), so
// a spread computed here is the spread the acceptance check computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	m := len(xs)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4 // past 4 or below 0 at the ends: extrapolates, as Python does
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one file's runs of one workload.
type side struct {
	runs    int
	failed  int64
	wrong   int // runs with correct == false
	metrics map[string][]float64
}

func loadRuns(path string) (map[string]*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Traced {
			continue // per-layer numbers carry no bound
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{metrics: map[string][]float64{}}
			out[r.Workload] = s
		}
		s.runs++
		s.failed += r.Failed
		if !r.Correct {
			s.wrong++
		}
		for name, v := range r.Metrics {
			s.metrics[name] = append(s.metrics[name], v.Value)
		}
	}
	return out, sc.Err()
}

// verdict is the outcome of one metric on one workload.
type verdict string

const (
	vOK         verdict = "ok"
	vBetter     verdict = "better"
	vRegression verdict = "REGRESSION"
	vUnresolved verdict = "unresolved"
)

// judge compares a metric's runs on the parent (a) and the change (b).
// worse is the share of the parent's median by which the change's median
// is worse (negative = better); spread is the wider of the two sides'
// interquartile ranges as a share of their medians. A spread wider than
// the bound means the runs cannot tell a regression of that size from
// noise: that is "unresolved", never "unchanged" — unless every run of
// the change beats every run of the parent.
func judge(def metricDef, a, b []float64) (v verdict, worse, spread float64) {
	sign := 1.0
	if def.better == higher {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worse = sign * (mb - ma) / ma
	for _, xs := range [][]float64{a, b} {
		if len(xs) >= 2 {
			q1, q2, q3 := quartiles(xs)
			spread = max(spread, (q3-q1)/q2)
		}
	}
	if spread > def.bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if sign*(x-y) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return vBetter, worse, spread
		}
		return vUnresolved, worse, spread
	}
	if worse > def.bound {
		return vRegression, worse, spread
	}
	return vOK, worse, spread
}

// compareFiles prints one table per workload: every end-to-end metric of
// the change (b) against the parent (a) and the metric's bound. Failures
// compare exactly. It returns 1 when anything regressed.
func compareFiles(pathA, pathB string) int {
	a, err := loadRuns(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no untraced runs", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadRuns(pathB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s: no untraced runs", pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, sp := range specs {
		sa, sb := a[sp.name], b[sp.name]
		if sa == nil || sb == nil {
			fmt.Printf("== %s: missing from one side\n", sp.name)
			status = 1
			continue
		}
		fmt.Printf("== %s  (parent %d runs, change %d runs)\n", sp.name, sa.runs, sb.runs)
		fmt.Printf("  %-18s %14s %14s %9s %8s %8s  %s\n", "metric", "parent", "change", "worse", "spread", "bound", "verdict")
		for _, def := range endToEnd {
			xa, xb := sa.metrics[def.name], sb.metrics[def.name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("  %-18s missing from one side\n", def.name)
				status = 1
				continue
			}
			v, worse, spread := judge(def, xa, xb)
			if v == vRegression {
				status = 1
			}
			fmt.Printf("  %-18s %14.4f %14.4f %+8.1f%% %7.1f%% %7.0f%%  %s\n",
				def.name, median(xa), median(xb), 100*worse, 100*spread, 100*def.bound, v)
		}
		fv := vOK
		if sb.failed > sa.failed || sb.wrong > sa.wrong {
			fv, status = vRegression, 1
		}
		fmt.Printf("  %-18s %14d %14d  (incorrect runs %d → %d)  %s\n", "failed", sa.failed, sb.failed, sa.wrong, sb.wrong, fv)
	}
	return status
}
