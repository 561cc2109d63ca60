package main

import (
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	repro "repro/internal/metrics"
)

// Latency histograms the program registers and the layer metrics read
// (sum and count only: their quantiles are log2-bucketed).
var histNames = []string{
	"core.pathsetup.setup_latency",
	"core.pathsetup.teardown_latency",
	"core.pathsetup.reroute_latency",
	"core.southbound.flush_latency",
	"core.graph.build_latency",
	"reca.compute.latency",
	"netem.delay",
}

const (
	rtAllocObjects = "/gc/heap/allocs:objects"
	rtAllocBytes   = "/gc/heap/allocs:bytes"
	rtGCCycles     = "/gc/cycles/total:gc-cycles"
	rtGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rtMutexWait    = "/sync/mutex/wait/total:seconds"
	rtHeapLive     = "/gc/heap/live:bytes"
	rtSchedLat     = "/sched/latencies:seconds"
)

var rtNames = []string{rtAllocObjects, rtAllocBytes, rtGCCycles, rtGCCPU,
	rtTotalCPU, rtMutexWait, rtHeapLive, rtSchedLat}

// snapshot is every passive reading taken at one instant: the program's
// own exported counters and histograms, the Go runtime's, and the
// process's CPU time. Layer metrics are differences of two snapshots.
type snapshot struct {
	counters map[string]int64
	histSum  map[string]time.Duration
	histN    map[string]int64
	rt       map[string]float64
	sched    *metrics.Float64Histogram
	cpu      time.Duration // process user+system
}

func takeSnapshot() snapshot {
	s := snapshot{
		counters: repro.RuntimeCounters(),
		histSum:  make(map[string]time.Duration, len(histNames)),
		histN:    make(map[string]int64, len(histNames)),
		rt:       make(map[string]float64, len(rtNames)),
		cpu:      processCPU(),
	}
	for _, name := range histNames {
		h := repro.NewDurationHist(name).Snapshot()
		s.histN[name] = h.Count
		s.histSum[name] = h.Mean * time.Duration(h.Count)
	}
	samples := make([]metrics.Sample, len(rtNames))
	for i, name := range rtNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, sm := range samples {
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			s.rt[sm.Name] = float64(sm.Value.Uint64())
		case metrics.KindFloat64:
			s.rt[sm.Name] = sm.Value.Float64()
		case metrics.KindFloat64Histogram:
			s.sched = sm.Value.Float64Histogram()
		}
	}
	return s
}

// delta is b − a for the counter, histogram and runtime readings.
type delta struct{ a, b snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.b.counters[name] - d.a.counters[name])
}

func (d delta) rt(name string) float64 { return d.b.rt[name] - d.a.rt[name] }

// histMeanUs is the mean of the observations made between the snapshots,
// in microseconds; 0 when there were none.
func (d delta) histMeanUs(name string) float64 {
	n := d.b.histN[name] - d.a.histN[name]
	if n == 0 {
		return 0
	}
	return float64(d.b.histSum[name]-d.a.histSum[name]) / float64(n) / 1e3
}

func (d delta) cpu() time.Duration { return d.b.cpu - d.a.cpu }

// schedP99Us is the 99th percentile of goroutine scheduling latency over
// the interval, from the runtime's bucketed histogram (upper bound of the
// bucket holding the rank), in microseconds.
func (d delta) schedP99Us() float64 {
	if d.a.sched == nil || d.b.sched == nil {
		return 0
	}
	counts := make([]uint64, len(d.b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = d.b.sched.Counts[i] - d.a.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total) * 0.99)
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen > rank {
			if upper := d.b.sched.Buckets[i+1]; !math.IsInf(upper, 1) {
				return upper * 1e6
			}
			return d.b.sched.Buckets[i] * 1e6 // the open-ended last bucket
		}
	}
	return 0
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
