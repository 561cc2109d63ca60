package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/discovery"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/southbound"
)

// pipelineFences issues n fenced modifications with at most window in
// flight, alternating an install with the delete that undoes it, and
// waits for all of them.
func pipelineFences(tb testing.TB, dev *ConnDevice, n, window int) {
	tb.Helper()
	rules := []dataplane.Rule{{Priority: 10, Owner: "p", Version: 1,
		Match:   dataplane.Match{InPort: 1, UE: "u", QoS: -1},
		Actions: []dataplane.Action{dataplane.Output(2)}}}
	slots := make(chan struct{}, window)
	var mu sync.Mutex
	var firstErr error
	cb := func(err error) {
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		<-slots
	}
	for i := 0; i < n; i++ {
		slots <- struct{}{}
		if i%2 == 0 {
			dev.installRulesAsync(rules, cb)
		} else {
			dev.removeRulesAsync(southbound.FlowDeleteOwner, "p", 0, cb)
		}
	}
	for i := 0; i < window; i++ {
		slots <- struct{}{}
	}
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		tb.Fatalf("fenced modification failed: %v", firstErr)
	}
}

// TestDeadlineLoopSleepsThroughCleanFences: fences that complete in time
// fire the deadline timer at most once per RTO period, however many there
// are — under 1 % of them at in-process speed. Before, every fence kicked
// the deadline goroutine and every completed fence woke it again at its
// stale deadline.
func TestDeadlineLoopSleepsThroughCleanFences(t *testing.T) {
	dev := dialAgentDevice(t)
	pipelineFences(t, dev, 64, 32) // seed the RTT estimator: deadlines are MinRTO from here on
	const fences = 10_000
	before := connDeadlineWakeups.Value()
	start := time.Now()
	pipelineFences(t, dev, fences, 32)
	elapsed := time.Since(start)
	wakeups := connDeadlineWakeups.Value() - before
	// The timer fires once per deadline period with work in it, and once
	// more per period that ends on an empty queue.
	limit := int64(2 + 2*elapsed/dev.MinRTO)
	if limit < fences/100 {
		limit = fences / 100
	}
	t.Logf("%d fences in %v: %d deadline-timer wake-ups (%.2f%%)", fences, elapsed, wakeups, 100*float64(wakeups)/fences)
	if wakeups > limit {
		t.Fatalf("%d deadline-timer wake-ups for %d clean fences in %v, want <= %d", wakeups, fences, elapsed, limit)
	}
}

// recordingDevice is a Device that records the batches programmed on it.
type recordingDevice struct {
	id  dataplane.DeviceID
	log *[]string
}

func (d recordingDevice) ID() dataplane.DeviceID { return d.id }
func (d recordingDevice) Features() (southbound.FeatureReply, error) {
	return southbound.FeatureReply{Device: d.id, Kind: dataplane.KindSwitch}, nil
}
func (d recordingDevice) InstallRules(rules []dataplane.Rule) error {
	line := string(d.id) + ":"
	for _, r := range rules {
		line += fmt.Sprintf(" p%d/%s/v%d", r.Priority, r.Owner, r.Version)
	}
	*d.log = append(*d.log, line)
	return nil
}
func (d recordingDevice) RemoveRules(southbound.FlowModCommand, string, int) error { return nil }
func (d recordingDevice) EmitDiscovery(dataplane.PortID, *discovery.Frame) error   { return nil }

// TestRuleBatchFlushesInFirstTouchOrder: a serial flush programs devices
// in the order the batch first touched them (the chaos harness's seed
// replay depends on it), a device touched twice gets both rules in one
// batch in the order they were added, and every rule carries the flush's
// owner and version.
func TestRuleBatchFlushesInFirstTouchOrder(t *testing.T) {
	var log []string
	c := NewController("L", 1, 0)
	for _, id := range []dataplane.DeviceID{"S3", "S1", "S2"} {
		c.AttachDevice(recordingDevice{id: id, log: &log})
	}
	b := newRuleBatch()
	for i, dev := range []dataplane.DeviceID{"S2", "S3", "S2", "S1", "S3", "S3"} {
		b.add(dev, dataplane.Rule{Priority: i})
	}
	if b.size != 6 || len(b.devs) != 3 {
		t.Fatalf("batch holds %d rules on %d devices, want 6 on 3", b.size, len(b.devs))
	}
	if err := c.flushBatch(b, "own", 7); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"S2: p0/own/v7 p2/own/v7",
		"S3: p1/own/v7 p4/own/v7 p5/own/v7",
		"S1: p3/own/v7",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("flush programmed\n  %q\nwant\n  %q", log, want)
	}
	if got := b.rulesOf("S9"); got != nil {
		t.Fatalf("rulesOf an untouched device = %v", got)
	}
}

// TestFencedModAllocsPinned gates the allocation diet on the fenced-mod
// path: one batch flush (ruleBatch, fan-out join, fenced install) plus the
// fenced delete that undoes it, through ConnDevice, Pipe and a real
// SwitchAgent, whose side of it (the flow-table entry and its index) is in
// the count. Raise the pin only with a reason; two more objects per pair
// fail it.
func TestFencedModAllocsPinned(t *testing.T) {
	dev := dialAgentDevice(t)
	c := NewController("L", 1, 0)
	c.AttachDevice(dev)
	devs := c.Devices()
	rule := dataplane.Rule{Priority: 10,
		Match:   dataplane.Match{InPort: 1, UE: "u", QoS: -1},
		Actions: []dataplane.Action{dataplane.Output(2)}}
	pair := func() {
		b := newRuleBatch()
		b.add(dev.ID(), rule)
		if err := c.flushBatch(b, "p", 1); err != nil {
			t.Fatal(err)
		}
		if err := c.removeOwned(devs, southbound.FlowDeleteOwner, "p", 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // grow the queues, tables and pools to steady state
		pair()
	}
	const pinned = 10 // 26 before the diet, 17 before flow tables held rules by value
	avg := testing.AllocsPerRun(500, pair)
	if avg >= pinned+2 {
		t.Fatalf("batch flush + fenced delete allocate %.0f objects, pinned at %d", avg, pinned)
	}
	if avg < pinned {
		t.Logf("batch flush + fenced delete allocate %.0f objects, below the pin of %d: lower the pin", avg, pinned)
	}
}

// dialImpairedAgent wires a ConnDevice over a Pipe to a real SwitchAgent
// whose replies cross an ImpairedConn with the given one-way delay — the
// mixed_pipe benchmark's per-switch control channel.
func dialImpairedAgent(tb testing.TB, delay time.Duration) (*ConnDevice, *southbound.ImpairedConn) {
	tb.Helper()
	net := dataplane.NewNetwork()
	net.AddSwitch("S1")
	agent := southbound.NewSwitchAgent(net, net.Switch("S1"))
	ctrlEnd, devEnd := southbound.Pipe(64)
	ic := southbound.NewImpairedConn(devEnd, netem.Profile{Delay: delay}, nil)
	go agent.Serve(ic)
	dev, err := DialDevice(ctrlEnd, "L1")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { dev.Close() })
	return dev, ic
}

func schedWakeups() int64 { return metrics.RuntimeCounters()["netem.sched_wakeups"] }

// TestSchedulerWakesAtMostOncePerFrame: the link scheduler's goroutine is
// woken at most once per delivered reply — once per frame when fences go
// one at a time (each reply finds the scheduler idle), far less when they
// are pipelined and replies fall due together. Before, every enqueue woke
// it to re-arm and the expiry woke it again: two per frame.
func TestSchedulerWakesAtMostOncePerFrame(t *testing.T) {
	dev, ic := dialImpairedAgent(t, 200*time.Microsecond)
	pipelineFences(t, dev, 64, 32)
	for _, tc := range []struct {
		name           string
		fences, window int
	}{{"one at a time", 200, 1}, {"pipelined", 10_000, 32}} {
		wakeups, delivered := schedWakeups(), ic.Link().Stats().Delivered
		pipelineFences(t, dev, tc.fences, tc.window)
		wakeups, delivered = schedWakeups()-wakeups, ic.Link().Stats().Delivered-delivered
		t.Logf("%s: %d scheduler wake-ups for %d delivered frames", tc.name, wakeups, delivered)
		if delivered < int64(tc.fences) || float64(wakeups) > 1.1*float64(delivered) {
			t.Errorf("%s: %d scheduler wake-ups for %d delivered frames (%d fences), want <= 1.1 per frame",
				tc.name, wakeups, delivered, tc.fences)
		}
	}
}

// BenchmarkFencedModPipe is the layer the mixed_pipe budget pointed at:
// fenced modifications from a ConnDevice over a Pipe to a SwitchAgent whose
// replies cross a 200 µs ImpairedConn, 32 fences in flight. wakeups/op adds
// the deadline timer's and the link scheduler's wake-ups per fenced mod.
func BenchmarkFencedModPipe(b *testing.B) {
	dev, _ := dialImpairedAgent(b, 200*time.Microsecond)
	pipelineFences(b, dev, 64, 32)
	wakeups := func() int64 { return connDeadlineWakeups.Value() + schedWakeups() }
	before := wakeups()
	b.ReportAllocs()
	b.ResetTimer()
	pipelineFences(b, dev, b.N, 32)
	b.StopTimer()
	b.ReportMetric(float64(wakeups()-before)/float64(b.N), "wakeups/op")
}
