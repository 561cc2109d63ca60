package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual five-number summary plus mean and count for a
// sample of float64 observations.
type Summary struct {
	Count  int
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P85    float64
	P95    float64
	Max    float64
	Mean   float64
	Stddev float64
}

// Summarize computes a Summary over xs. It does not modify xs. An empty
// input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum, sumsq float64
	for _, v := range s {
		sum += v
		sumsq += v * v
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count:  len(s),
		Min:    s[0],
		P25:    quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.50),
		P75:    quantileSorted(s, 0.75),
		P85:    quantileSorted(s, 0.85),
		P95:    quantileSorted(s, 0.95),
		Max:    s[len(s)-1],
		Mean:   mean,
		Stddev: math.Sqrt(variance),
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks. It copies and sorts internally.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDF is an empirical cumulative distribution function over a fixed sample.
// The zero value is empty; construct with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs (copied, then sorted).
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len reports the number of underlying observations.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P[X ≤ x], the fraction of observations ≤ x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want count of values <= x, so search for the first value > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Inverse returns the smallest x such that P[X ≤ x] ≥ p (the p-quantile of
// the empirical distribution).
func (c *CDF) Inverse(p float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// Points samples the CDF at n evenly spaced probability levels and returns
// (value, probability) pairs suitable for plotting a CDF curve.
func (c *CDF) Points(n int) []Point {
	if n <= 0 || len(c.sorted) == 0 {
		return nil
	}
	pts := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		p := float64(i) / float64(n)
		pts = append(pts, Point{X: c.Inverse(p), Y: p})
	}
	return pts
}

// Point is an (x, y) pair on a plotted curve.
type Point struct {
	X, Y float64
}

// Table renders rows of experiment output with aligned columns, in the style
// of the paper's tables. Header cells define the column count; extra row
// cells are dropped, missing cells rendered empty.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// String renders the table with box-drawing-free ASCII alignment.
func (t *Table) String() string {
	ncol := len(t.Header)
	widths := make([]int, ncol)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i := 0; i < ncol && i < len(row); i++ {
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			if i == ncol-1 {
				b.WriteString(cell) // no trailing padding
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := ncol*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// ReductionPct returns the percentage reduction from base to improved, e.g.
// ReductionPct(100, 64) == 36. Returns 0 when base is 0.
func ReductionPct(base, improved float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - improved) / base * 100
}
