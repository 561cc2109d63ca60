// Command loadgen drives the deterministic UE workload engine against an
// N-region hierarchy and writes BENCH_workload.json: sustained events/sec,
// p50/p99 latency per operation type, and replay digests.
//
// The schedule and final logical UE-table state depend only on the seed
// and config; two runs with the same -seed print identical trace_digest
// and state_digest values. Typical invocations:
//
//	go run ./cmd/loadgen -seed 1 -regions 4 -ues 100000 -events 400000
//	go run ./cmd/loadgen -seed 1 -mode open -rate 20000 -inflight 256
//	go run ./cmd/loadgen -seed 1 -lte-minute 720       # noon diurnal mix
//
// With -procs N the run is distributed: the process becomes the cluster
// launcher, hosting the root controller and spawning N region processes
// (itself re-exec'd with -as-region). The regions are split contiguously
// among the processes, each builds only its slice of the data plane, and
// the tree is assembled over localhost TCP northbound connections. The
// schedule and final state are replay-identical to the in-process run at
// the same seed — -verify-inproc re-runs in-process and checks the
// digests match:
//
//	go run ./cmd/loadgen -seed 1 -procs 4 -regions 8 -ues 1000000
//	go run ./cmd/loadgen -seed 1 -procs 2 -verify-inproc
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ltetrace"
	"repro/internal/workload"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the program body so profile-writing defers run before
// the exit status is set.
func realMain() int {
	var (
		seed      = flag.Int64("seed", 1, "schedule seed (replays exactly)")
		regions   = flag.Int("regions", 4, "leaf regions in the ring")
		bsPer     = flag.Int("bs-per-region", 4, "base stations per region")
		ues       = flag.Int("ues", 100_000, "UE population size")
		events    = flag.Int("events", 400_000, "operations to generate")
		mode      = flag.String("mode", "closed", "pacing mode: closed | open")
		workers   = flag.Int("workers", 0, "execution lanes (0 = GOMAXPROCS)")
		inflight  = flag.Int("inflight", 0, "open-loop in-flight admission window (0 = 4x workers)")
		rate      = flag.Float64("rate", 0, "open-loop target events/sec (0 = window-limited)")
		lteMinute = flag.Int("lte-minute", -1, "derive the op mix from the ltetrace diurnal model at this minute of day (-1 = default mix)")
		remote    = flag.Float64("remote-share", 0.2, "probability an attach targets another region's prefix")
		ctrlDelay = flag.Duration("control-delay", 200*time.Microsecond, "emulated controller-switch propagation delay; switches attach over the real southbound protocol with replies held back this long (0 = direct in-process devices)")
		out       = flag.String("out", "BENCH_workload.json", "report path")
		trace     = flag.String("trace", "", "also write the replayable event trace to this path")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		mtxProf   = flag.String("mutexprofile", "", "write a mutex-contention profile of the run to this path")
		chaosFail = flag.Bool("chaos-failover", false, "kill the HA master mid-run and measure the promotion: runs the schedule twice (incremental snapshots, then full-history replay), asserts both land on the plain run's state digest, and emits the failover report section")
		killAt    = flag.Int("kill-at", 0, "op index at which the master dies under -chaos-failover (0 = halfway through the run)")
		lostCmts  = flag.Int("lost-commits", 3, "acked ops whose commits the dying master loses under -chaos-failover")
		abandonW  = flag.Int("abandon", 4, "in-flight ops the dying master abandons (logged, unprocessed) under -chaos-failover")
		snapEvery = flag.Int("snapshot-every", 64, "checkpoint the replicated UE table every N committed entries under -chaos-failover")
		impairMtx = flag.Bool("impair-matrix", false, "run the impaired-WAN scenario matrix (clean / lossy / jittery / combined / scheduled partition) at the shared seed, require identical replay digests across scenarios, and emit the impairment report section")
		procs     = flag.Int("procs", 0, "region processes: >0 runs the distributed multi-process mode with the regions split contiguously among this many processes (0 = in-process)")
		verify    = flag.Bool("verify-inproc", false, "after a -procs run, re-run in-process and require identical replay digests")
		asRegion  = flag.Bool("as-region", false, "run as a region process under a launcher (internal; reads config and commands from stdin)")
	)
	flag.Parse()

	if *asRegion {
		return regionMode()
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *mtxProf != "" {
		runtime.SetMutexProfileFraction(5)
		defer func() {
			f, err := os.Create(*mtxProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}()
	}

	cfg := workload.Config{
		Seed: *seed, Regions: *regions, BSPerRegion: *bsPer,
		UEs: *ues, Events: *events,
		Mode: workload.Mode(*mode), Workers: *workers,
		MaxInFlight: *inflight, RatePerSec: *rate,
		RemotePrefixShare: *remote, ControlDelay: *ctrlDelay,
	}
	if *lteMinute >= 0 {
		cfg.Mix, cfg.BSWeights = workload.MixFromLTE(ltetrace.Params{}, *lteMinute, *regions, *bsPer)
	}

	var (
		rep *workload.Report
		err error
	)
	if *procs > 0 {
		exe, xerr := os.Executable()
		if xerr != nil {
			fatal(xerr)
		}
		rep, err = workload.RunDistributed(cfg, *procs, []string{exe, "-as-region"})
		if err == nil && rep.FirstErr != "" {
			fmt.Fprintf(os.Stderr, "loadgen: first failure: %s\n", rep.FirstErr)
		}
	} else {
		rep, err = run(cfg)
	}
	if err != nil {
		fatal(err)
	}
	if *verify {
		if *procs <= 0 {
			fatal(fmt.Errorf("-verify-inproc requires -procs"))
		}
		ref, rerr := run(cfg)
		if rerr != nil {
			fatal(fmt.Errorf("verify pass: %w", rerr))
		}
		fmt.Printf("loadgen: verify: distributed trace %s state %s ues %d | in-process trace %s state %s ues %d\n",
			rep.TraceDigest, rep.StateDigest, rep.FinalUEs,
			ref.TraceDigest, ref.StateDigest, ref.FinalUEs)
		if rep.TraceDigest != ref.TraceDigest || rep.StateDigest != ref.StateDigest ||
			rep.FinalUEs != ref.FinalUEs || rep.Failures != ref.Failures {
			fmt.Fprintln(os.Stderr, "loadgen: verify-inproc FAILED: distributed run diverged from in-process replay")
			return 1
		}
		fmt.Println("loadgen: verify-inproc OK: digests identical")
	}
	if *trace != "" {
		if err := writeTrace(*trace, cfg); err != nil {
			fatal(err)
		}
	}
	if *chaosFail {
		if *procs > 0 {
			fatal(fmt.Errorf("-chaos-failover runs in-process only (not with -procs)"))
		}
		sec, ferr := failoverPasses(cfg, rep.StateDigest, *killAt, *lostCmts, *abandonW, *snapEvery)
		if ferr != nil {
			fatal(ferr)
		}
		rep.Failover = sec
	}
	if *impairMtx {
		if *procs > 0 {
			fatal(fmt.Errorf("-impair-matrix runs in-process only (not with -procs)"))
		}
		m, merr := runImpairMatrix(cfg)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "loadgen: impair-matrix FAILED:", merr)
			return 1
		}
		rep.Impairment = m
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	fmt.Printf("loadgen: seed %d: %d events, %.0f events/sec, %d failures, %d stalls\n",
		*seed, rep.Events, rep.EventsPerSec, rep.Failures, rep.Stalls)
	fmt.Printf("loadgen: trace %s state %s (%d UE rows) -> %s\n",
		rep.TraceDigest, rep.StateDigest, rep.FinalUEs, *out)
	if rep.Distributed != nil {
		for _, pp := range rep.Distributed.Per {
			fmt.Printf("loadgen: proc %d regions [%d,%d): %d events, %.0f ev/s\n",
				pp.Proc, pp.Lo, pp.Hi, pp.Events, pp.EventsPerSec)
		}
		fmt.Printf("loadgen: %d procs aggregate: %.0f ev/s\n",
			rep.Distributed.Procs, rep.Distributed.AggregateEPS)
	}
	if fo := rep.Failover; fo != nil {
		for _, p := range []*workload.FailoverPassStats{fo.Snapshot, fo.FullReplay} {
			kind := "snapshots off (full replay)"
			if p.SnapshotEvery > 0 {
				kind = fmt.Sprintf("snapshot every %d", p.SnapshotEvery)
			}
			fmt.Printf("loadgen: failover [%s]: kill@%d, promotion %.2fms (recovery %.2fms), "+
				"%d redone, %d replayed (snapshot %dB seq %d), %d dups caught, %d lost, log %d->%d entries\n",
				kind, p.KillAtOp, float64(p.PromotionLatencyNs)/1e6, float64(p.RecoveryWallNs)/1e6,
				p.RedoneEntries, p.ReplayedEntries, p.SnapshotBytes, p.SnapshotSeq,
				p.DuplicatesDetected, p.EventsLost, p.LogLenAtPromote, p.LogLenFinal)
		}
		fmt.Printf("loadgen: failover: replay reduction %.1fx, digests match plain run: %t\n",
			fo.ReplayReduction, fo.DigestsMatch)
		if !fo.DigestsMatch {
			fmt.Fprintln(os.Stderr, "loadgen: chaos-failover FAILED: a failover run diverged from the plain run")
			return 1
		}
	}
	if im := rep.Impairment; im != nil {
		for _, sc := range im.Scenarios {
			extra := ""
			if sc.Partition != nil {
				extra = fmt.Sprintf(", partition: %d suspects, %d rediscoveries, restored %t",
					sc.Partition.Suspects, sc.Partition.Rediscoveries, sc.Partition.LinksRestored)
			}
			fmt.Printf("loadgen: impair [%s]: %.0f ev/s, %d failures, "+
				"netem %d sent / %d dropped (%d loss, %d partition), %d reordered, "+
				"%d rtt samples, %d retries, %d stale replies%s\n",
				sc.Name, sc.EventsPerSec, sc.Failures,
				sc.Netem.Sent, sc.Netem.DroppedLoss+sc.Netem.DroppedOverflow+sc.Netem.DroppedPartition,
				sc.Netem.DroppedLoss, sc.Netem.DroppedPartition, sc.Netem.Reordered,
				sc.RTTSamples, sc.BarrierRetries, sc.StaleReplies, extra)
		}
	}
	if rep.Failures > 0 {
		return 1
	}
	return 0
}

// failoverPasses runs the schedule twice under a planned master crash —
// once with incremental snapshots, once with full-history replay — and
// cross-checks both final states against the plain run's digest.
func failoverPasses(cfg workload.Config, baseDigest string, killAt, lost, abandon, snapEvery int) (*workload.FailoverSection, error) {
	if killAt <= 0 {
		killAt = cfg.Events / 2
	}
	spec := workload.FailoverSchedule{
		KillAt: killAt, LostCommits: lost, Abandon: abandon, SnapshotEvery: snapEvery,
	}
	_, _, snap, err := workload.RunFailoverPass(cfg, spec)
	if err != nil {
		return nil, fmt.Errorf("failover snapshot pass: %w", err)
	}
	spec.SnapshotEvery = 0
	_, _, full, err := workload.RunFailoverPass(cfg, spec)
	if err != nil {
		return nil, fmt.Errorf("failover full-replay pass: %w", err)
	}
	return workload.BuildFailoverSection(baseDigest, snap, full), nil
}

// regionMode serves the region-process protocol on stdio (the -as-region
// re-exec path): it builds its slice of the data plane, attaches its
// leaves to the launcher over the binary northbound wire, and on SIGTERM
// or SIGINT drains outstanding northbound requests and southbound fences
// for up to five seconds so no half-installed batch is stranded.
func regionMode() int {
	var cur atomic.Pointer[workload.RegionProc]
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sig
		if p := cur.Load(); p != nil {
			if err := p.Drain(5 * time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: region drain:", err)
			}
			p.Close()
		}
		os.Exit(0)
	}()
	err := workload.RegionMain(os.Stdin, os.Stdout, func(p *workload.RegionProc) {
		cur.Store(p)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: region:", err)
		return 1
	}
	return 0
}

// run executes one configured pass and assembles its report.
func run(cfg workload.Config) (*workload.Report, error) {
	eng, cl, err := workload.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	res := eng.Run()
	rep := workload.BuildReport(cfg, cl, res)
	if res.FirstErr != nil {
		fmt.Fprintf(os.Stderr, "loadgen: first failure: %v\n", res.FirstErr)
	}
	return rep, nil
}

// writeTrace regenerates the schedule (generation is cheap and pure) and
// writes one line per op.
func writeTrace(path string, cfg workload.Config) error {
	ops, err := workload.GenerateSchedule(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, op := range ops {
		fmt.Fprintln(w, op.TraceLine())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(2)
}
