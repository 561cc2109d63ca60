package routing

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/nib"
)

// gridNIB builds an n×n switch grid with 4 ports per switch.
func gridNIB(n int) *nib.NIB {
	nb := nib.New()
	id := func(r, c int) dataplane.DeviceID {
		return dataplane.DeviceID(fmt.Sprintf("SW%02d%02d", r, c))
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			nb.PutDevice(nib.Device{ID: id(r, c), Kind: dataplane.KindSwitch,
				Ports: []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}, {ID: 3, Up: true}, {ID: 4, Up: true}}})
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				nb.PutLink(nib.Link{A: dataplane.PortRef{Dev: id(r, c), Port: 1},
					B:       dataplane.PortRef{Dev: id(r, c+1), Port: 2},
					Latency: 5 * time.Millisecond, Bandwidth: 1000, Up: true})
			}
			if r+1 < n {
				nb.PutLink(nib.Link{A: dataplane.PortRef{Dev: id(r, c), Port: 3},
					B:       dataplane.PortRef{Dev: id(r+1, c), Port: 4},
					Latency: 5 * time.Millisecond, Bandwidth: 1000, Up: true})
			}
		}
	}
	return nb
}

// BenchmarkBuildGraph measures routing-graph construction over a
// 324-switch NIB (the evaluation's scale class).
func BenchmarkBuildGraph(b *testing.B) {
	nb := gridNIB(18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := BuildGraph(nb)
		if g.NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkShortestPathCold measures one corner-to-corner constrained
// Dijkstra plus path reconstruction: the uncached body, what a memo miss
// costs.
func BenchmarkShortestPathCold(b *testing.B) {
	g := BuildGraph(gridNIB(18))
	s := g.nodes[dataplane.PortRef{Dev: "SW0000", Port: 1}]
	d := g.nodes[dataplane.PortRef{Dev: "SW1717", Port: 1}]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.shortestPath(s, d, MinHops, Constraints{}) == nil {
			b.Fatal("no path")
		}
	}
}

// BenchmarkShortestPath measures a repeated corner-to-corner question on
// an unchanged graph: the memo hit every bearer request between topology
// events takes.
func BenchmarkShortestPath(b *testing.B) {
	g := BuildGraph(gridNIB(18))
	src := dataplane.PortRef{Dev: "SW0000", Port: 1}
	dst := dataplane.PortRef{Dev: "SW1717", Port: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ShortestPath(src, dst, MinHops, Constraints{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsFrom measures one SSSP sweep (the per-port fabric fill).
func BenchmarkMetricsFrom(b *testing.B) {
	g := BuildGraph(gridNIB(18))
	src := dataplane.PortRef{Dev: "SW0909", Port: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if row := g.MetricsFrom(src); len(row) == 0 {
			b.Fatal("empty row")
		}
	}
}

// BenchmarkPairMetrics measures the cost-only pair query (no path
// reconstruction) used O(ports²) by the abstraction recompute.
func BenchmarkPairMetrics(b *testing.B) {
	g := BuildGraph(gridNIB(18))
	src := dataplane.PortRef{Dev: "SW0000", Port: 1}
	dst := dataplane.PortRef{Dev: "SW1717", Port: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := g.PairMetrics(src, dst); !m.Reachable {
			b.Fatal("unreachable")
		}
	}
}

// BenchmarkRouteMemoParallel is the memo's read path under contention:
// every proc asks the same 64 (src, dst) questions of one warm graph. Run
// it at -cpu 1,2,...: ns/op must not grow with the proc count, since a hit
// takes no lock.
func BenchmarkRouteMemoParallel(b *testing.B) {
	g := BuildGraph(gridNIB(18))
	src := dataplane.PortRef{Dev: "SW0000", Port: 1}
	var dsts [64]dataplane.PortRef
	for i := range dsts {
		dsts[i] = dataplane.PortRef{Dev: dataplane.DeviceID(fmt.Sprintf("SW%02d%02d", 17-i%8, 17-i/8)), Port: 1}
		if _, err := g.ShortestPath(src, dsts[i], MinHops, Constraints{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := g.ShortestPath(src, dsts[i%len(dsts)], MinHops, Constraints{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShortestPathParallel asks the corner-to-corner question from
// all procs at once: after the first fill, concurrent hits on one memo
// entry.
func BenchmarkShortestPathParallel(b *testing.B) {
	g := BuildGraph(gridNIB(18))
	src := dataplane.PortRef{Dev: "SW0000", Port: 1}
	dst := dataplane.PortRef{Dev: "SW1717", Port: 1}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := g.ShortestPath(src, dst, MinHops, Constraints{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
