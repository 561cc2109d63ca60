package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dataplane"
)

// flapRec is one link flap: which region's preferred access link went
// down, when, how long the leaf's repair took, and what became of the
// paths that crossed it.
type flapRec struct {
	region   int
	start    int64 // ns since the load's epoch
	repair   time.Duration
	repaired int
	inactive int // torn down by the live load while queued for repair
	unrouted int // repair failed with the path still active
	// outlastedLoad marks the flap in progress when the load ended: the
	// tail of its repair ran on an idle tree, so it is traced but kept
	// out of the repair rate.
	outlastedLoad bool
}

// flapper takes region k's preferred access link (A_k — M_ka, the 2 ms
// branch every path prefers) down, runs the leaf's full reaction to
// completion, brings the link back and moves to the next region, once
// per period, beside the live load. It is the write side of the NIB and
// graph cache that the other workloads only read.
type flapper struct {
	sys    *system
	l      *load
	period time.Duration

	stop chan struct{}
	wg   sync.WaitGroup
	recs []flapRec // owned by the goroutine until wait returns
	err  error
}

func startFlapper(sys *system, l *load, period time.Duration) *flapper {
	f := &flapper{sys: sys, l: l, period: period, stop: make(chan struct{})}
	f.wg.Add(1)
	go f.loop()
	return f
}

// wait stops the flapper after the flap in progress and returns what it
// recorded.
func (f *flapper) wait() ([]flapRec, error) {
	loadEnd := f.l.now()
	close(f.stop)
	f.wg.Wait()
	for i := range f.recs {
		r := &f.recs[i]
		r.outlastedLoad = r.start+int64(r.repair) > loadEnd
	}
	return f.recs, f.err
}

func (f *flapper) loop() {
	defer f.wg.Done()
	tick := time.NewTicker(f.period)
	defer tick.Stop()
	for k := 0; ; k = (k + 1) % len(f.sys.regions) {
		if err := f.flap(k); err != nil {
			f.err = err
			return
		}
		// A repair that outlasts the period leaves a tick pending; stop
		// must win over it.
		select {
		case <-f.stop:
			return
		default:
		}
		select {
		case <-f.stop:
			return
		case <-tick.C:
		}
	}
}

func (f *flapper) flap(k int) error {
	net := f.sys.net(k)
	a := dataplane.DeviceID(fmt.Sprintf("A%d", k))
	m := dataplane.DeviceID(fmt.Sprintf("M%da", k))
	var link *dataplane.Link
	for _, l := range net.Links() {
		if l.A.Dev == a && l.B.Dev == m {
			link = l
		}
	}
	if link == nil {
		return fmt.Errorf("flap: no link %s—%s", a, m)
	}
	leaf := f.sys.regions[k].Leaf
	rec := flapRec{region: k, start: f.l.now()}
	net.SetLinkState(link, false)
	t0 := time.Now()
	repaired, failed := leaf.HandleLinkFailure(link.A.Dev, link.A.Port)
	rec.repair = time.Since(t0)
	net.SetLinkState(link, true)
	rec.repaired = len(repaired)
	for _, id := range failed {
		// The repair works from a list of paths taken when the link went
		// down; a path the live load tore down before its turn fails
		// PrepareReroute as "not active". That is the load winning a
		// race, not a repair failure.
		if p, ok := leaf.Path(id); ok && p.Active {
			rec.unrouted++
		} else {
			rec.inactive++
		}
	}
	f.recs = append(f.recs, rec)
	return nil
}
