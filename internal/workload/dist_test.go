package workload_test

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/northbound"
	"repro/internal/southbound"
	"repro/internal/workload"
)

// distCfg is the shared config for the distributed-equivalence tests:
// small enough to run in seconds, large enough that every op kind and
// cross-region interaction occurs.
func distCfg() workload.Config {
	return workload.Config{
		Seed: 7, Regions: 4, BSPerRegion: 2,
		UEs: 2000, Events: 4000, Shards: 4,
		Mode: workload.ModeClosed, Workers: 4, MaxInFlight: 16,
		RemotePrefixShare: 0.3,
	}
}

// buildDistCluster assembles a procs-way distributed cluster over real
// TCP using the same primitives loadgen's -as-region mode and the
// launcher use, minus the process boundary: RegionProc slices connected to a launcher-side
// root via northbound wires.
func buildDistCluster(t *testing.T, cfg workload.Config, procs int) (*core.Controller, []*workload.RegionProc) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	bounds := workload.SliceBounds(cfg.Regions, procs)
	ps := make([]*workload.RegionProc, procs)
	owner := make([]*workload.RegionProc, cfg.Regions)
	for i, b := range bounds {
		p, err := workload.NewRegionProc(workload.RegionConfig{
			Config: cfg, Lo: b[0], Hi: b[1], Addr: ln.Addr().String(), Proc: i,
		})
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
		ps[i] = p
		for k := b[0]; k < b[1]; k++ {
			owner[k] = p
		}
		t.Cleanup(p.Close)
	}

	root := workload.NewDistRoot(cfg.Regions, cfg.Shards)
	devs := make([]*core.ConnDevice, 0, cfg.Regions)
	for k := 0; k < cfg.Regions; k++ {
		errCh := make(chan error, 1)
		p := owner[k]
		go func() { errCh <- p.ConnectRegion(k) }()
		nc, err := ln.Accept()
		if err != nil {
			t.Fatalf("accept region %d: %v", k, err)
		}
		d, err := northbound.AttachRemoteChild(root, southbound.NewBinConn(nc))
		if err != nil {
			t.Fatalf("attach region %d: %v", k, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("connect region %d: %v", k, err)
		}
		devs = append(devs, d)
	}
	if err := workload.FinishDistRoot(root, devs); err != nil {
		t.Fatalf("finish root: %v", err)
	}
	for k := 0; k < cfg.Regions; k++ {
		if err := owner[k].Propagate(k); err != nil {
			t.Fatalf("propagate region %d: %v", k, err)
		}
	}
	return root, ps
}

// TestDistributedDigestsMatchInProcess is the replay-equivalence check
// the multi-process mode stands on: the same (seed, config) executed on
// a 2-slice distributed 4-region cluster must land every UE table in the
// same final state as the in-process run — composed state digest, final
// row count, and failure count all identical.
func TestDistributedDigestsMatchInProcess(t *testing.T) {
	cfg := distCfg()

	eng, cl, err := workload.NewEngine(cfg)
	if err != nil {
		t.Fatalf("in-process engine: %v", err)
	}
	defer cl.Close()
	ref := workload.BuildReport(cfg, cl, eng.Run())

	root, ps := buildDistCluster(t, cfg, 2)

	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		prs = make([]*workload.ProcResult, len(ps))
	)
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p *workload.RegionProc) {
			defer wg.Done()
			pr, err := p.Run()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Errorf("proc %d run: %v", i, err)
				return
			}
			prs[i] = pr
		}(i, p)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	sections := [][]byte{workload.StateSection(root)}
	events, failures := 0, int64(0)
	for _, pr := range prs {
		events += pr.Events
		failures += pr.Failures
	}
	for k := 0; k < cfg.Regions; k++ {
		for _, p := range ps {
			leaf := p.Cluster().Regions[k].Leaf
			if leaf != nil {
				sections = append(sections, workload.StateSection(leaf))
				break
			}
		}
	}

	if events != ref.Events {
		t.Errorf("distributed executed %d events, in-process %d", events, ref.Events)
	}
	if failures != ref.Failures {
		t.Errorf("distributed failures %d, in-process %d", failures, ref.Failures)
	}
	got := workload.ComposeStateDigest(sections)
	if got != ref.StateDigest {
		t.Errorf("state digest mismatch: distributed %s, in-process %s", got, ref.StateDigest)
	}

	for i, p := range ps {
		if err := p.Drain(2 * time.Second); err != nil {
			t.Errorf("proc %d drain: %v", i, err)
		}
	}
}

// TestRegionSliceLeafMatchesFullBuild unit-tests the premise the digest
// comparison relies on: a one-region slice's leaf exposes exactly the
// features — G-switch ports and their numbers, fabric, G-BSes — the full
// build's leaf for that region does, stub ports standing in for the ring
// links that leave the slice.
func TestRegionSliceLeafMatchesFullBuild(t *testing.T) {
	for _, regions := range []int{2, 4} {
		full, err := workload.BuildCluster(regions, 4, 0, workload.ControlPlane{})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < regions; k++ {
			slice, err := workload.BuildRegionSlice(regions, 4, 0, workload.ControlPlane{}, k, k+1)
			if err != nil {
				t.Fatal(err)
			}
			got := slice.Regions[k].Leaf.RecAFeatures()
			want := full.Regions[k].Leaf.RecAFeatures()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("R=%d region %d: slice leaf features\n%+v\nwant\n%+v", regions, k, got, want)
			}
		}
	}
}

// TestSliceBounds pins the contiguous split the launcher and the region
// processes must agree on.
func TestSliceBounds(t *testing.T) {
	got := workload.SliceBounds(5, 2)
	want := [][2]int{{0, 3}, {3, 5}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slice %d: got %v, want %v", i, got[i], want[i])
		}
	}
}
