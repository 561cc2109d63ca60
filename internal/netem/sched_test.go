package netem_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/testutil/leakcheck"
)

func schedWakeups() int64 { return metrics.RuntimeCounters()["netem.sched_wakeups"] }

// TestWallSchedulerEarlierEventRearms: an event due before the one the
// scheduler sleeps toward, enqueued later, fires at its own time — the one
// enqueue that must still re-arm the timer.
func TestWallSchedulerEarlierEventRearms(t *testing.T) {
	defer leakcheck.Check(t)
	s := netem.NewWallScheduler()
	defer s.Stop()
	fired := make(chan string, 2)
	now := s.Now()
	s.At(now+2*time.Second, func() { fired <- "late" })
	time.Sleep(5 * time.Millisecond) // let the loop park on the 2 s head
	s.At(now+20*time.Millisecond, func() { fired <- "early" })
	select {
	case got := <-fired:
		if got != "early" {
			t.Fatalf("%s event fired first", got)
		}
		if at := s.Now() - now; at < 20*time.Millisecond || at > time.Second {
			t.Fatalf("early event fired at +%v, want ~20ms", at)
		}
	case <-time.After(time.Second):
		t.Fatal("early event waited for the armed head: timer not re-armed")
	}
}

// TestWallSchedulerEqualTimesFIFO: events due at the same time fire in
// insertion order, including ones pushed out of due-time order around them.
func TestWallSchedulerEqualTimesFIFO(t *testing.T) {
	defer leakcheck.Check(t)
	s := netem.NewWallScheduler()
	defer s.Stop()
	const n = 200
	var got []int
	done := make(chan struct{})
	at := s.Now() + 10*time.Millisecond
	s.At(at+time.Millisecond, func() { close(done) })
	for i := 0; i < n; i++ {
		i := i
		s.At(at, func() { got = append(got, i) }) // callbacks run on one goroutine
	}
	s.At(at-time.Millisecond, func() { got = append(got, -1) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("events did not fire")
	}
	if len(got) != n+1 || got[0] != -1 {
		t.Fatalf("fired %d events, first %v; want %d with the earlier one first", len(got), got[:1], n+1)
	}
	for i, v := range got[1:] {
		if v != i {
			t.Fatalf("equal-time event %d fired in slot %d", v, i)
		}
	}
}

// TestWallSchedulerBurstOneWakeup: a burst due at one instant costs one
// timer wake-up, not one per event.
func TestWallSchedulerBurstOneWakeup(t *testing.T) {
	defer leakcheck.Check(t)
	s := netem.NewWallScheduler()
	defer s.Stop()
	time.Sleep(5 * time.Millisecond) // the loop's first park is not the burst's
	const n = 500
	var wg sync.WaitGroup
	wg.Add(n)
	before := schedWakeups()
	at := s.Now() + 20*time.Millisecond
	for i := 0; i < n; i++ {
		s.At(at, wg.Done)
	}
	wg.Wait()
	time.Sleep(5 * time.Millisecond) // let the loop park again, counting that too
	if got := schedWakeups() - before; got > 2 {
		t.Fatalf("netem.sched_wakeups rose by %d for a %d-event burst, want <= 2", got, n)
	}
}

// TestWallSchedulerStop: Stop drops pending events, and At after Stop is a
// no-op.
func TestWallSchedulerStop(t *testing.T) {
	defer leakcheck.Check(t)
	s := netem.NewWallScheduler()
	fired := make(chan struct{}, 2)
	s.At(s.Now()+20*time.Millisecond, func() { fired <- struct{}{} })
	s.Stop()
	s.At(s.Now(), func() { fired <- struct{}{} })
	s.Stop() // idempotent
	select {
	case <-fired:
		t.Fatal("an event fired after Stop")
	case <-time.After(60 * time.Millisecond):
	}
}

// TestWallLinkConcurrentSendersKeepOrder: the in-order queue hands each
// sender's frames to the sink in the order that sender sent them, with
// jitter reshuffling raw delivery times and senders racing each other.
func TestWallLinkConcurrentSendersKeepOrder(t *testing.T) {
	defer leakcheck.Check(t)
	const senders, frames = 4, 300
	var mu sync.Mutex
	next := make([]int, senders)
	var wg sync.WaitGroup
	wg.Add(senders * frames)
	l := netem.NewWallLink(func(p [2]int) {
		mu.Lock()
		if p[1] != next[p[0]] {
			t.Errorf("sender %d: frame %d delivered in slot %d", p[0], p[1], next[p[0]])
		}
		next[p[0]]++
		mu.Unlock()
		wg.Done()
	}, netem.Profile{Delay: 200 * time.Microsecond, Jitter: 150 * time.Microsecond}, netem.LinkRNG(1, "order"))
	for s := 0; s < senders; s++ {
		go func(s int) {
			for i := 0; i < frames; i++ {
				if err := l.Send([2]int{s, i}, 100); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}(s)
	}
	wg.Wait()
	if st := l.Stats(); st.Delivered != senders*frames {
		t.Fatalf("delivered %d, want %d", st.Delivered, senders*frames)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSimTracePinned: the impairment pipeline on virtual time — loss,
// jitter, reordering and the rate cap together, so in-order and reordered
// frames interleave — still produces the delivery trace it produced before
// the link grew its in-order queue.
func TestSimTracePinned(t *testing.T) {
	prof := netem.Profile{Delay: 2 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.05,
		Reorder: 0.2, RateMbps: 10, QueueBytes: 4000}
	want := map[int64]string{1: "79c554a85b76420e", 2: "66c296d6bbbaa1f1", 3: "d4c1c089edf03ce2"}
	for seed, digest := range want {
		if got := digestOf(simTrace(t, seed, prof, 2000, 150*time.Microsecond)); got != digest {
			t.Errorf("seed %d: trace digest %s, want %s", seed, got, digest)
		}
	}
}

// BenchmarkWallSchedulerAt times At in the shape a FIFO link gives the
// scheduler: due times 200 µs out, never decreasing, enqueued while earlier
// ones fire. wakeups/op is netem.sched_wakeups per event.
func BenchmarkWallSchedulerAt(b *testing.B) {
	s := netem.NewWallScheduler()
	defer s.Stop()
	var wg sync.WaitGroup
	wg.Add(b.N)
	done := wg.Done
	before := schedWakeups()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+200*time.Microsecond, done)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(schedWakeups()-before)/float64(b.N), "wakeups/op")
}
