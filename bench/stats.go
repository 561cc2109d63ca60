package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	repro "repro/internal/metrics"
)

// dist is a latency distribution kept as raw samples. A failed operation
// is recorded as +Inf: it misses every latency limit, so it sits above
// every finite sample and drags the tail, never silently drops out.
type dist struct {
	ms     []float64
	sorted bool
}

func (d *dist) add(lat time.Duration) { d.ms = append(d.ms, float64(lat)/1e6); d.sorted = false }
func (d *dist) addFailed()            { d.ms = append(d.ms, math.Inf(1)); d.sorted = false }
func (d *dist) n() int                { return len(d.ms) }

// percentile is the nearest-rank p-th percentile in milliseconds (p in
// (0,100]); NaN for an empty distribution.
func (d *dist) percentile(p float64) float64 {
	if len(d.ms) == 0 {
		return math.NaN()
	}
	if !d.sorted {
		sort.Float64s(d.ms)
		d.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(d.ms))))
	return d.ms[min(max(rank, 1), len(d.ms))-1]
}

// tailLadder are the percentiles offered as "the tail", each with the
// share of samples beyond it as 1/beyond; tail picks the highest one that
// still has at least tailBeyond samples above it, so a reported tail is
// never set by a handful of outliers.
var tailLadder = []struct {
	p      float64
	beyond int
}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10_000}}

const tailBeyond = 10

// tail returns the highest supported ladder percentile and its value;
// ok is false when even p90 has fewer than tailBeyond samples beyond it.
func (d *dist) tail() (p, value float64, ok bool) {
	for _, rung := range tailLadder {
		if len(d.ms) >= tailBeyond*rung.beyond {
			p, ok = rung.p, true
		}
	}
	if !ok {
		return 0, math.NaN(), false
	}
	return p, d.percentile(p), true
}

// String renders the distribution the way every result line shows one:
// median, p90, p99 and the supported tail, with the sample count.
func (d *dist) String() string {
	if d.n() == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d p50=%.4f p90=%.4f p99=%.4f ms", d.n(),
		d.percentile(50), d.percentile(90), d.percentile(99))
	if p, v, ok := d.tail(); ok {
		s += fmt.Sprintf(" tail=p%g:%.4f", p, v)
	} else {
		s += " tail=unsupported(<10 beyond p90)"
	}
	return s
}

// median is the repo's own interpolated quantile at one half; NaN for an
// empty slice.
func median(xs []float64) float64 { return repro.Quantile(xs, 0.5) }

// segmentLen is the rate-segment length for a measured window: 2 s, or a
// third of the window when it is too short to hold three such segments.
func segmentLen(window time.Duration) time.Duration {
	if window >= 6*time.Second {
		return 2 * time.Second
	}
	return window / 3
}

// segmentRates counts completions per whole segment of [0, window) and
// returns events/s for each; completions past the last whole segment are
// ignored. The median of these resists a single stalled segment (a GC
// pause, a noisy neighbour), which a whole-window mean does not.
func segmentRates(ends []int64, window, seg time.Duration) []float64 {
	n := int(window / seg)
	if n == 0 {
		return nil
	}
	counts := make([]int, n)
	for _, e := range ends {
		if e < 0 {
			continue
		}
		if i := int(e / int64(seg)); i < n {
			counts[i]++
		}
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / seg.Seconds()
	}
	return rates
}
