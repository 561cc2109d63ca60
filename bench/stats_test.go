package main

import (
	"math"
	"testing"
	"time"
)

func distOf(ms ...float64) *dist {
	d := &dist{}
	for _, v := range ms {
		d.add(time.Duration(v * 1e6))
	}
	return d
}

func TestPercentileNearestRank(t *testing.T) {
	d := distOf(5, 1, 4, 2, 3) // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{50, 3}, {90, 5}, {20, 1}, {21, 2}, {100, 5}, {0.001, 1},
	} {
		if got := d.percentile(c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := (&dist{}).percentile(50); !math.IsNaN(got) {
		t.Errorf("empty distribution p50 = %g, want NaN", got)
	}
	if got := distOf(7).percentile(99); got != 7 {
		t.Errorf("single sample p99 = %g, want 7", got)
	}
}

// A failed op is +Inf: it sits above every finite sample, so it moves a
// percentile exactly when failures reach that percentile's share.
func TestFailedOpsAreInfinite(t *testing.T) {
	d := &dist{}
	for i := 0; i < 95; i++ {
		d.add(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		d.addFailed()
	}
	if got := d.percentile(50); got != 1 {
		t.Errorf("p50 = %g, want 1", got)
	}
	if got := d.percentile(95); got != 1 {
		t.Errorf("p95 = %g, want 1 (5%% failures sit above it)", got)
	}
	if got := d.percentile(96); !math.IsInf(got, 1) {
		t.Errorf("p96 = %g, want +Inf", got)
	}
	if d.n() != 100 {
		t.Errorf("n = %d, want 100: failures stay in the sample count", d.n())
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) *dist {
		d := &dist{}
		for i := 1; i <= n; i++ {
			d.add(time.Duration(i) * time.Millisecond)
		}
		return d
	}
	if _, _, ok := mk(99).tail(); ok {
		t.Error("99 samples leave 9.9 beyond p90: no tail is supported")
	}
	for _, c := range []struct {
		n     int
		wantP float64
	}{{100, 90}, {999, 90}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}, {5_000_000, 99.99}} {
		p, v, ok := mk(c.n).tail()
		if !ok || p != c.wantP {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g", c.n, p, ok, c.wantP)
		}
		if want := mk(c.n).percentile(c.wantP); v != want {
			t.Errorf("n=%d: tail value %g, want %g", c.n, v, want)
		}
	}
}

func TestSegmentRates(t *testing.T) {
	sec := int64(time.Second)
	ends := []int64{0, sec / 2, 2*sec - 1, 2 * sec, 3 * sec, 5*sec + 1, 6*sec + 5, -1}
	got := segmentRates(ends, 7*time.Second, 2*time.Second)
	want := []float64{1.5, 1, 0.5} // the 7th second is not a whole segment
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("segment %d: %g, want %g", i, got[i], want[i])
		}
	}
	if m := median(got); m != 1 {
		t.Errorf("median %g, want 1", m)
	}
	if got[0] != 1.5 {
		t.Error("median must not reorder its argument")
	}
	if seg := segmentLen(15 * time.Second); seg != 2*time.Second {
		t.Errorf("segmentLen(15s) = %v", seg)
	}
	if seg := segmentLen(900 * time.Millisecond); seg != 300*time.Millisecond {
		t.Errorf("segmentLen(0.9s) = %v", seg)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7}, 1, 7, 10},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{2, 4, 4, 5, 7, 9, 11, 12, 20, 21, 30}, 4, 9, 20},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("%v: got %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
