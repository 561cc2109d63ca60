package reca

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/nib"
)

// gridNIB builds an n×n switch grid with 4 ports per switch. Dangling
// boundary ports (no link, up) are exposed as border ports by Compute, so
// an n×n grid yields 4(n-1) exposed ports — a many-border-port fabric fill.
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

// TestComputeFabricParallelMatchesSerial pins the parallel fan-out to the
// serial fill: identical vFabric metrics for every port pair regardless of
// worker count.
func TestComputeFabricParallelMatchesSerial(t *testing.T) {
	nb := gridNIB(6)
	defer func(w int) { fabricWorkers = w }(fabricWorkers)

	fabricWorkers = 1
	serial := Compute("ctrl", nb, Config{})
	fabricWorkers = 8
	parallel := Compute("ctrl", nb, Config{})

	sf, pf := serial.GSwitch.Fabric, parallel.GSwitch.Fabric
	if sf.Len() != pf.Len() {
		t.Fatalf("fabric sizes differ: serial %d, parallel %d", sf.Len(), pf.Len())
	}
	if sf.Len() == 0 {
		t.Fatal("expected a non-empty fabric from the grid's dangling boundary ports")
	}
	for _, pp := range sf.Pairs() {
		sm, _ := sf.Get(pp.A, pp.B)
		pm, ok := pf.Get(pp.A, pp.B)
		if !ok || sm != pm {
			t.Fatalf("pair (%d,%d): serial %+v, parallel %+v (ok=%v)", pp.A, pp.B, sm, pm, ok)
		}
	}
}

// BenchmarkCompute measures a full abstraction recompute (border-port
// discovery + parallel fabric fill) over a 12×12 grid with 44 exposed
// border ports — the §3.2 recompute hot path.
func BenchmarkCompute(b *testing.B) {
	nb := gridNIB(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab := Compute("ctrl", nb, Config{})
		if ab.Stats.ExposedPorts == 0 {
			b.Fatal("no exposed ports")
		}
	}
}

// BenchmarkComputeSerial is BenchmarkCompute pinned to one fabric worker,
// isolating the parallel fan-out's contribution.
func BenchmarkComputeSerial(b *testing.B) {
	nb := gridNIB(12)
	defer func(w int) { fabricWorkers = w }(fabricWorkers)
	fabricWorkers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab := Compute("ctrl", nb, Config{})
		if ab.Stats.ExposedPorts == 0 {
			b.Fatal("no exposed ports")
		}
	}
}
