package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("expected zero summary, got %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.Count != 1 || s.Min != 42 || s.Max != 42 || s.Median != 42 || s.Mean != 42 {
		t.Fatalf("bad summary for single value: %+v", s)
	}
	if s.Stddev != 0 {
		t.Fatalf("stddev of single value should be 0, got %v", s.Stddev)
	}
}

func TestSummarizeKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := Summarize(xs)
	if s.Count != 10 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 1 || s.Max != 10 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if !almostEq(s.Mean, 5.5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean)
	}
	if !almostEq(s.Median, 5.5, 1e-12) {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileEdges(t *testing.T) {
	xs := []float64{5, 1, 9}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 9 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 5 {
		t.Fatalf("q0.5 = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("quantile of empty should be NaN")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if q := Quantile(xs, 0.25); !almostEq(q, 2.5, 1e-12) {
		t.Fatalf("interpolated quantile = %v", q)
	}
}

func TestMean(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("mean of empty should be NaN")
	}
	if m := Mean([]float64{2, 4}); m != 3 {
		t.Fatalf("mean = %v", m)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {99, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almostEq(got, tc.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFInverse(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	if v := c.Inverse(0.25); v != 10 {
		t.Fatalf("Inverse(0.25) = %v", v)
	}
	if v := c.Inverse(0.75); v != 30 {
		t.Fatalf("Inverse(0.75) = %v", v)
	}
	if v := c.Inverse(1); v != 40 {
		t.Fatalf("Inverse(1) = %v", v)
	}
	if v := c.Inverse(0); v != 10 {
		t.Fatalf("Inverse(0) = %v", v)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.Len() != 0 {
		t.Fatal("empty CDF should have Len 0")
	}
	if c.At(1) != 0 {
		t.Fatal("At on empty should be 0")
	}
	if !math.IsNaN(c.Inverse(0.5)) {
		t.Fatal("Inverse on empty should be NaN")
	}
	if pts := c.Points(5); pts != nil {
		t.Fatal("Points on empty should be nil")
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	pts := NewCDF(xs).Points(50)
	if len(pts) != 50 {
		t.Fatalf("len(points) = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X {
			t.Fatalf("CDF x values must be nondecreasing: %v then %v", pts[i-1], pts[i])
		}
		if pts[i].Y <= pts[i-1].Y {
			t.Fatalf("CDF y values must be increasing")
		}
	}
	if !almostEq(pts[len(pts)-1].Y, 1.0, 1e-12) {
		t.Fatalf("last probability should be 1, got %v", pts[len(pts)-1].Y)
	}
}

// Property: CDF.At is a valid CDF — monotone nondecreasing and within [0,1];
// and Inverse is a quasi-inverse: At(Inverse(p)) >= p.
func TestCDFPropertyQuick(t *testing.T) {
	f := func(raw []float64, probe float64, p float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		v := c.At(probe)
		if v < 0 || v > 1 {
			return false
		}
		// monotonicity around probe
		if c.At(probe+1) < v {
			return false
		}
		p = math.Abs(math.Mod(p, 1))
		inv := c.Inverse(p)
		return c.At(inv) >= p-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile matches sort-based rank selection at extremes.
func TestQuantilePropertyQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return Quantile(xs, 0) == s[0] && Quantile(xs, 1) == s[len(s)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	counts, min, width := Histogram(xs, 5)
	if min != 0 {
		t.Fatalf("min = %v", min)
	}
	if !almostEq(width, 1.8, 1e-12) {
		t.Fatalf("width = %v", width)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(xs) {
		t.Fatalf("histogram loses values: %d != %d", total, len(xs))
	}
}

func TestHistogramDegenerate(t *testing.T) {
	counts, _, width := Histogram([]float64{5, 5, 5}, 4)
	if width != 0 {
		t.Fatalf("width = %v", width)
	}
	if counts[0] != 3 {
		t.Fatalf("all values should land in bin 0: %v", counts)
	}
	if c, _, _ := Histogram(nil, 3); c != nil {
		t.Fatal("empty histogram should be nil")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1: Demo", "Name", "Ports", "Pct")
	tb.AddRow("Leaf A", 218, 26.0)
	tb.AddRow("Leaf B", 213, 18.5)
	out := tb.String()
	if !strings.Contains(out, "Table 1: Demo") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "Leaf A") || !strings.Contains(out, "218") {
		t.Fatalf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "26") {
		t.Fatalf("float formatting broken:\n%s", out)
	}
	if !strings.Contains(out, "18.50") {
		t.Fatalf("fractional float should keep decimals:\n%s", out)
	}
	if len(tb.rows) != 2 {
		t.Fatalf("NumRows = %d", len(tb.rows))
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("only-one")
	out := tb.String()
	if !strings.Contains(out, "only-one") {
		t.Fatalf("ragged row dropped:\n%s", out)
	}
}

func TestReductionPct(t *testing.T) {
	if r := ReductionPct(100, 64); !almostEq(r, 36, 1e-12) {
		t.Fatalf("reduction = %v", r)
	}
	if r := ReductionPct(0, 10); r != 0 {
		t.Fatalf("reduction with zero base = %v", r)
	}
	if r := ReductionPct(50, 75); !almostEq(r, -50, 1e-12) {
		t.Fatalf("negative reduction = %v", r)
	}
}

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Histogram buckets xs into nbins equal-width bins over [min, max] and
// returns the per-bin counts along with the bin width. Values exactly at the
// upper edge fall into the last bin.
func Histogram(xs []float64, nbins int) (counts []int, min, width float64) {
	if len(xs) == 0 || nbins <= 0 {
		return nil, 0, 0
	}
	min, max := xs[0], xs[0]
	for _, v := range xs {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	counts = make([]int, nbins)
	if max == min {
		counts[0] = len(xs)
		return counts, min, 0
	}
	width = (max - min) / float64(nbins)
	for _, v := range xs {
		i := int((v - min) / width)
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	return counts, min, width
}
