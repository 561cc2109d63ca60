package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/reca"
	"repro/internal/routing"
)

// benchWAN builds a fresh Fig.5-style two-region WAN outside the testing.T
// helpers so benchmarks can use it.
func benchWAN(b *testing.B) (*dataplane.Network, *Hierarchy, dataplane.PortRef) {
	b.Helper()
	net := dataplane.NewNetwork()
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3", "S4"} {
		net.AddSwitch(id)
	}
	for _, pair := range [][2]dataplane.DeviceID{{"S1", "S2"}, {"S2", "S3"}, {"S3", "S4"}} {
		if _, err := net.Connect(pair[0], pair[1], 5*time.Millisecond, 1000); err != nil {
			b.Fatal(err)
		}
	}
	rp, _ := net.AddRadioPort("S1", "gA")
	ep, _ := net.AddEgress("E1", "S4", "isp")
	h, err := NewTwoLevel(net, "root", []LeafSpec{
		{ID: "L1", Switches: []dataplane.DeviceID{"S1", "S2"},
			Radios: []reca.RadioAttachment{{ID: "gA",
				Attach: dataplane.PortRef{Dev: "S1", Port: rp.ID}, Border: true}},
			BSGroup: map[dataplane.DeviceID]dataplane.DeviceID{"b1": "gA"}},
		{ID: "L2", Switches: []dataplane.DeviceID{"S3", "S4"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	l2 := h.Controller("L2")
	l2.AddInterdomainRoutes([]interdomain.Route{{
		Prefix: "pfx", Egress: "E1", EgressSwitch: "S4",
		Metrics: interdomain.Metrics{Hops: 5, RTT: 10 * time.Millisecond},
	}}, dataplane.PortRef{Dev: "S4", Port: ep.Port})
	l2.PropagateInterdomain()
	return net, h, dataplane.PortRef{Dev: "S1", Port: rp.ID}
}

// BenchmarkBootstrapTwoLevel measures the full bottom-up bootstrap:
// discovery, abstraction, cross-region discovery.
func BenchmarkBootstrapTwoLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, h, _ := benchWAN(b)
		if h.Root.NIB.NumLinks() == 0 {
			b.Fatal("bootstrap found no cross link")
		}
	}
}

// BenchmarkBearerSetup measures one delegated bearer admission: routing at
// the root plus recursive label-swapped path installation in both leaves.
func BenchmarkBearerSetup(b *testing.B) {
	_, h, _ := benchWAN(b)
	l1 := h.Controller("L1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ue := fmt.Sprintf("u%d", i)
		rec, err := l1.HandleBearerRequest(BearerRequest{UE: ue, BS: "b1", Prefix: "pfx"})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_ = rec.HandledBy.TeardownPath(rec.PathID, nil)
		b.StartTimer()
	}
}

// BenchmarkEndToEndPacket measures a packet riding an installed
// cross-region label-switched path.
func BenchmarkEndToEndPacket(b *testing.B) {
	net, h, radio := benchWAN(b)
	l1 := h.Controller("L1")
	if _, err := l1.HandleBearerRequest(BearerRequest{UE: "u", BS: "b1", Prefix: "pfx"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := &dataplane.Packet{UE: "u", DstPrefix: "pfx"}
		res, err := net.Inject(radio.Dev, radio.Port, pkt)
		if err != nil || res.Disposition != dataplane.DispEgressed {
			b.Fatalf("delivery failed: %v %v", res.Disposition, err)
		}
	}
}

// BenchmarkRouteRecursive measures the leaf→root delegation path of the
// routing service. The NIB does not change between iterations, so this is
// the graph-cache-hit steady state (the common case: every bearer request
// between topology events).
func BenchmarkRouteRecursive(b *testing.B) {
	_, h, radio := benchWAN(b)
	l1 := h.Controller("L1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := l1.RouteRecursive(RouteRequest{From: radio, Prefix: "pfx", Objective: routing.MinHops})
		if err != nil || res.ResolvedBy != h.Root {
			b.Fatalf("delegation failed: %v", err)
		}
	}
}

// BenchmarkRouteRecursiveCacheMiss is the cache-miss variant: every
// iteration dirties both the leaf's and the root's NIB (re-putting an
// existing link bumps the generation without changing topology), forcing
// full graph rebuilds on the delegation path.
func BenchmarkRouteRecursiveCacheMiss(b *testing.B) {
	_, h, radio := benchWAN(b)
	l1 := h.Controller("L1")
	leafLink := l1.NIB.Links()[0]
	rootLink := h.Root.NIB.Links()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.NIB.PutLink(leafLink)
		h.Root.NIB.PutLink(rootLink)
		res, err := l1.RouteRecursive(RouteRequest{From: radio, Prefix: "pfx", Objective: routing.MinHops})
		if err != nil || res.ResolvedBy != h.Root {
			b.Fatalf("delegation failed: %v", err)
		}
	}
}

// BenchmarkGraphCacheHit isolates the Graph() fast path: two atomic loads
// against a clean cache.
func BenchmarkGraphCacheHit(b *testing.B) {
	_, h, _ := benchWAN(b)
	l1 := h.Controller("L1")
	l1.Graph() // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := l1.Graph(); g == nil {
			b.Fatal("nil graph")
		}
	}
}

// BenchmarkHandoverKeep times the same-group handover that keeps the
// bearer's path, the reuse path most handovers take (§7.1). "inline" runs
// it on the benchmark goroutine; "goroutine" starts every handover on a
// fresh goroutine, as bench/ starts every op it times, so a path deep
// enough to outgrow a new goroutine's starting stack pays for the copy
// here.
func BenchmarkHandoverKeep(b *testing.B) {
	run := func(b *testing.B, fresh bool) {
		f := buildLifeFixture(b, false)
		f.attach(b, BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx"})
		bs := [2]dataplane.DeviceID{"b1", "b2"}
		done := make(chan error)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !fresh {
				if err := f.leaf.Handover("u1", "gA", bs[i%2]); err != nil {
					b.Fatal(err)
				}
				continue
			}
			go func() { done <- f.leaf.Handover("u1", "gA", bs[i%2]) }()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("inline", func(b *testing.B) { run(b, false) })
	b.Run("goroutine", func(b *testing.B) { run(b, true) })
}
