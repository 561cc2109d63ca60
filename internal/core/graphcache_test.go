package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/nib"
	"repro/internal/routing"
)

// cacheTestController builds a controller whose NIB holds two independent
// two-switch components: S1—S2 (asserted on by the main goroutine) and
// S3—S4 (flapped by a background writer to create concurrent mutations).
func cacheTestController() (*Controller, nib.Link, nib.Link) {
	c := NewController("L", 1, 0)
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3", "S4"} {
		c.NIB.PutDevice(nib.Device{ID: id, Kind: dataplane.KindSwitch,
			Ports: []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}}})
	}
	l12 := nib.Link{A: dataplane.PortRef{Dev: "S1", Port: 1},
		B:       dataplane.PortRef{Dev: "S2", Port: 1},
		Latency: time.Millisecond, Bandwidth: 1000, Up: true}
	l34 := nib.Link{A: dataplane.PortRef{Dev: "S3", Port: 1},
		B:       dataplane.PortRef{Dev: "S4", Port: 1},
		Latency: time.Millisecond, Bandwidth: 1000, Up: true}
	c.NIB.PutLink(l12)
	c.NIB.PutLink(l34)
	return c, l12, l34
}

// TestGraphCacheReturnsFreshGraph asserts the cache contract on one
// goroutine: after any completed NIB mutation, the next Graph() reflects
// it (down links disappear, restored links reappear, removed and re-added
// records behave identically).
func TestGraphCacheReturnsFreshGraph(t *testing.T) {
	c, l12, _ := cacheTestController()
	src := dataplane.PortRef{Dev: "S1", Port: 2}
	dst := dataplane.PortRef{Dev: "S2", Port: 2}

	reachable := func() bool {
		_, err := c.Graph().ShortestPath(src, dst, routing.MinHops, routing.Constraints{})
		if err != nil && !errors.Is(err, routing.ErrNoPath) {
			t.Fatalf("ShortestPath: %v", err)
		}
		return err == nil
	}

	if !reachable() {
		t.Fatal("baseline: S1—S2 should route")
	}
	if g1, g2 := c.Graph(), c.Graph(); g1 != g2 {
		t.Fatal("unchanged NIB should return the identical cached graph")
	}
	for i := 0; i < 50; i++ {
		c.NIB.SetLinkUp(l12.Key(), false)
		if reachable() {
			t.Fatalf("iteration %d: stale graph still routes over a down link", i)
		}
		c.NIB.SetLinkUp(l12.Key(), true)
		if !reachable() {
			t.Fatalf("iteration %d: restored link missing from fresh graph", i)
		}
		c.NIB.RemoveLink(l12.Key())
		if reachable() {
			t.Fatalf("iteration %d: stale graph still routes over a removed link", i)
		}
		c.NIB.PutLink(l12)
		if !reachable() {
			t.Fatalf("iteration %d: re-added link missing from fresh graph", i)
		}
	}
}

// TestGraphCacheConcurrent exercises the cache under -race: reader
// goroutines hammer Graph() and run SSSPs (sharing pooled scratch state)
// while one writer flaps an independent link and the main goroutine
// mutates and immediately asserts freshness. Readers must never crash or
// observe a torn graph, and the main goroutine must never observe a stale
// one — neither a stale graph nor, through the graph's path memo, a stale
// route: with S1—S2 down the answer is the two-hop detour over S5, with it
// up the direct hop, on the very next call.
func TestGraphCacheConcurrent(t *testing.T) {
	c, l12, l34 := cacheTestController()
	src := dataplane.PortRef{Dev: "S1", Port: 2}
	dst := dataplane.PortRef{Dev: "S2", Port: 2}
	c.NIB.PutDevice(nib.Device{ID: "S5", Kind: dataplane.KindSwitch,
		Ports: []nib.PortRecord{{ID: 1, Up: true}, {ID: 2, Up: true}}})
	for _, l := range []nib.Link{
		{A: src, B: dataplane.PortRef{Dev: "S5", Port: 1}},
		{A: dataplane.PortRef{Dev: "S5", Port: 2}, B: dst},
	} {
		l.Latency, l.Bandwidth, l.Up = time.Millisecond, 1000, true
		c.NIB.PutLink(l)
	}
	direct := []dataplane.DeviceID{"S1", "S2"}
	detour := []dataplane.DeviceID{"S1", "S5", "S2"}
	bgSrc := dataplane.PortRef{Dev: "S3", Port: 2}
	bgDst := dataplane.PortRef{Dev: "S4", Port: 2}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 16)

	// Readers: concurrent Graph() + path queries over both components.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g := c.Graph()
				if g == nil {
					errc <- errors.New("Graph() returned nil")
					return
				}
				// Outcomes vary with the flapping; only invariants are
				// checked: no panic, no torn state, metrics consistent.
				p, err := g.ShortestPath(src, dst, routing.MinHops, routing.Constraints{})
				if err != nil {
					errc <- fmt.Errorf("reader ShortestPath: %w", err)
					return
				}
				if d := p.Devices(); !slices.Equal(d, direct) && !slices.Equal(d, detour) {
					errc <- fmt.Errorf("reader route %v is neither the direct hop nor the detour", d)
					return
				}
				if q, _ := g.ShortestPath(src, dst, routing.MinHops, routing.Constraints{}); q != p {
					errc <- errors.New("one graph gave two answers to one question")
					return
				}
				row := g.MetricsFrom(bgSrc)
				if m, ok := row[bgDst]; ok && m.Reachable && m.Hops == 0 && bgSrc != bgDst {
					errc <- fmt.Errorf("torn metrics: reachable with 0 hops")
					return
				}
			}
		}()
	}

	// Writer: flap the independent S3—S4 link and its port records.
	wg.Add(1)
	go func() {
		defer wg.Done()
		up := false
		for !stop.Load() {
			c.NIB.SetLinkUp(l34.Key(), up)
			c.HandlePortStatus("S3", 1, up)
			up = !up
		}
	}()

	// Main goroutine: mutate S1—S2 and assert the very next Graph() call
	// reflects the completed mutation.
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		c.NIB.SetLinkUp(l12.Key(), false)
		if p, err := c.Graph().ShortestPath(src, dst, routing.MinHops, routing.Constraints{}); err != nil || !slices.Equal(p.Devices(), detour) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("iteration %d: stale route: S1—S2 is down, got %+v (err=%v), want the detour", i, p, err)
		}
		c.NIB.SetLinkUp(l12.Key(), true)
		if p, err := c.Graph().ShortestPath(src, dst, routing.MinHops, routing.Constraints{}); err != nil || !slices.Equal(p.Devices(), direct) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("iteration %d: stale route: S1—S2 is back, got %+v (err=%v), want the direct hop", i, p, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
