package ltetrace

import "testing"

// BenchmarkModelRates measures per-minute rate queries (the inner loop of
// the Fig. 11 and Fig. 12 drivers).
func BenchmarkModelRates(b *testing.B) {
	m := New(Params{Seed: 1, NumBS: 200})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs := i % len(m.BSIDs)
		minute := i % MinutesPerDay
		_ = m.BearerRate(bs, minute)
		_ = m.UEArrivalRate(bs, minute)
		_ = m.HandoverRate(bs, minute)
	}
}

// BenchmarkHandoverGraph measures building one 3-hour group-level handover
// graph (one Fig. 12 window).
func BenchmarkHandoverGraph(b *testing.B) {
	m := New(Params{Seed: 1, NumBS: 200})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := m.HandoverGraphGroups(12*60, 15*60)
		if g.TotalWeight() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkInferGroups measures the §7.1 BS-group inference.
func BenchmarkInferGroups(b *testing.B) {
	m := New(Params{Seed: 1, NumBS: 200})
	base := m.HandoverGraphBS(12*60, 15*60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := InferGroups(base) // read-only: InferGroups does not mutate its graph
		if len(groups) == 0 {
			b.Fatal("no groups")
		}
	}
}
