package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dataplane"
)

// Radio-index contention benchmarks (see EXPERIMENTS.md): GroupOfBS /
// AttachOfGroup are on every bearer-setup hot path, and before the
// radio-index split they took the full UE-table mutex — a burst of bearer
// record writes stalled every concurrent lookup. After the split the
// lookups take only the index's RWMutex read lock, so table writers cannot
// contend with them; the two benchmarks below measure the lookup with and
// without a saturating background table writer, and should be within noise
// of each other.

func benchRadioController() *Controller {
	c := NewController("bench", 1, 0)
	bsGroup := make(map[dataplane.DeviceID]dataplane.DeviceID)
	for i := 0; i < 64; i++ {
		bsGroup[dataplane.DeviceID(fmt.Sprintf("b%d", i))] = "gA"
	}
	c.SetRadioIndex(bsGroup, map[dataplane.DeviceID]dataplane.PortRef{"gA": {Dev: "S1", Port: 1}})
	return c
}

// BenchmarkGroupOfBSParallel measures the read-only index lookup alone.
func BenchmarkGroupOfBSParallel(b *testing.B) {
	c := benchRadioController()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			bs := dataplane.DeviceID(fmt.Sprintf("b%d", i&63))
			if _, ok := c.GroupOfBS(bs); !ok {
				b.Fatal("lookup failed")
			}
			i++
		}
	})
}

// BenchmarkGroupOfBSParallelWithTableWriters runs the same lookup while a
// background goroutine continuously rewrites UE table rows — the scenario
// that serialized on the old single UE-table mutex.
func BenchmarkGroupOfBSParallelWithTableWriters(b *testing.B) {
	c := benchRadioController()
	var stop atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		i := 0
		for !stop.Load() {
			ue := fmt.Sprintf("u%d", i&1023)
			c.ue.put(&UERecord{UE: ue, BS: "b0", Group: "gA", Active: true})
			i++
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			bs := dataplane.DeviceID(fmt.Sprintf("b%d", i&63))
			if _, ok := c.GroupOfBS(bs); !ok {
				b.Fatal("lookup failed")
			}
			i++
		}
	})
	b.StopTimer()
	stop.Store(true)
	<-writerDone
}

// BenchmarkLockUE measures the uncontended per-UE operation lock cycle
// (registry insert, lock, unlock, registry reclaim) added to every
// mobility operation by the sharded store.
func BenchmarkLockUE(b *testing.B) {
	s := newUEState(DefaultUEShards)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			done := s.lockUE(fmt.Sprintf("u%d", i&4095))
			done.unlock()
			i++
		}
	})
}
