package netem_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/simnet"
	"repro/internal/testutil/leakcheck"
)

// simTrace replays frames through a link on virtual time and returns the
// delivery trace: "payload@virtualNanos" per delivered frame, in order.
func simTrace(t *testing.T, seed int64, prof netem.Profile, frames int, gap time.Duration) []string {
	t.Helper()
	sim := simnet.New()
	var trace []string
	l := netem.NewLink(netem.NewSimScheduler(sim), func(p interface{}) {
		trace = append(trace, fmt.Sprintf("%v@%d", p, sim.Now()))
	}, prof, netem.LinkRNG(seed, "trace"))
	for i := 0; i < frames; i++ {
		i := i
		sim.At(time.Duration(i)*gap, func() {
			if err := l.Send(i, 200); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		})
	}
	sim.Run()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return trace
}

func digestOf(trace []string) string {
	h := fnv.New64a()
	for _, line := range trace {
		_, _ = h.Write([]byte(line)) //softmow:allow errdiscard hash.Hash Write cannot fail
		_, _ = h.Write([]byte{'\n'}) //softmow:allow errdiscard hash.Hash Write cannot fail
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestReplayDeterminism: the full impairment pipeline on virtual time is a
// pure function of (seed, profile, send sequence) — two runs produce
// byte-identical delivery traces, and a different seed does not.
func TestReplayDeterminism(t *testing.T) {
	prof := netem.Profile{
		Delay:   2 * time.Millisecond,
		Jitter:  500 * time.Microsecond,
		Loss:    0.05,
		Reorder: 0.05,
	}
	a := digestOf(simTrace(t, 42, prof, 2000, 100*time.Microsecond))
	b := digestOf(simTrace(t, 42, prof, 2000, 100*time.Microsecond))
	if a != b {
		t.Fatalf("same seed diverged: %s vs %s", a, b)
	}
	c := digestOf(simTrace(t, 43, prof, 2000, 100*time.Microsecond))
	if a == c {
		t.Fatalf("different seeds produced identical impairment traces: %s", a)
	}
}

// TestFIFOWithoutReorder: with reordering disabled, jitter never lets a
// frame overtake an earlier one.
func TestFIFOWithoutReorder(t *testing.T) {
	prof := netem.Profile{Delay: time.Millisecond, Jitter: 2 * time.Millisecond}
	trace := simTrace(t, 7, prof, 1000, 10*time.Microsecond)
	if len(trace) != 1000 {
		t.Fatalf("lost frames on a loss-free link: %d/1000", len(trace))
	}
	for i, line := range trace {
		var got int
		var at int64
		if _, err := fmt.Sscanf(line, "%d@%d", &got, &at); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if got != i {
			t.Fatalf("frame %d delivered in position %d: FIFO violated", got, i)
		}
	}
}

// TestRateCapOverflow: a rate-capped link serializes frames back-to-back
// and tail-drops past the queue bound, all deterministically.
func TestRateCapOverflow(t *testing.T) {
	// 0.8 Mbit/s = 100 kB/s: a 1000-byte frame takes 10ms to serialize.
	prof := netem.Profile{RateMbps: 0.8, QueueBytes: 4500}
	sim := simnet.New()
	var got []string
	l := netem.NewLink(netem.NewSimScheduler(sim), func(p interface{}) {
		got = append(got, fmt.Sprintf("%v@%v", p, sim.Now()))
	}, prof, nil)
	sim.At(0, func() {
		for i := 0; i < 10; i++ {
			if err := l.Send(i, 1000); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	sim.Run()
	want := "0@10ms|1@20ms|2@30ms|3@40ms"
	if s := strings.Join(got, "|"); s != want {
		t.Fatalf("rate-capped deliveries = %s, want %s", s, want)
	}
	st := l.Stats()
	if st.DroppedOverflow != 6 {
		t.Fatalf("DroppedOverflow = %d, want 6", st.DroppedOverflow)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPartitionWindow: frames sent inside a scheduled window vanish;
// frames outside it are unaffected.
func TestPartitionWindow(t *testing.T) {
	prof := netem.Profile{Windows: []netem.Window{{From: 5 * time.Millisecond, To: 10 * time.Millisecond}}}
	sim := simnet.New()
	var got []int
	l := netem.NewLink(netem.NewSimScheduler(sim), func(p interface{}) {
		got = append(got, p.(int))
	}, prof, nil)
	for i := 1; i <= 12; i++ {
		i := i
		sim.At(time.Duration(i)*time.Millisecond, func() { _ = l.Send(i, 100) })
	}
	sim.Run()
	want := []int{1, 2, 3, 4, 10, 11, 12}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if st := l.Stats(); st.DroppedPartition != 5 {
		t.Fatalf("DroppedPartition = %d, want 5", st.DroppedPartition)
	}
}

// TestSetDown: a forced partition drops frames until lifted, independent
// of the profile.
func TestSetDown(t *testing.T) {
	sim := simnet.New()
	var got []int
	l := netem.NewLink(netem.NewSimScheduler(sim), func(p interface{}) {
		got = append(got, p.(int))
	}, netem.Profile{}, nil)
	sim.At(0, func() { _ = l.Send(1, 100) })
	sim.At(time.Millisecond, func() { l.SetDown(true) })
	sim.At(2*time.Millisecond, func() { _ = l.Send(2, 100) })
	sim.At(3*time.Millisecond, func() { l.SetDown(false) })
	sim.At(4*time.Millisecond, func() { _ = l.Send(3, 100) })
	sim.Run()
	if fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("delivered %v, want [1 3]", got)
	}
	if st := l.Stats(); st.DroppedPartition != 1 {
		t.Fatalf("DroppedPartition = %d, want 1", st.DroppedPartition)
	}
}

// TestWallLinkCloseOrdering: after Close returns, the sink is never
// invoked again — queued frames die with the link. This is the regression
// test for the old delayed-conn race where a queued frame could land on
// the inner conn after Close returned.
func TestWallLinkCloseOrdering(t *testing.T) {
	defer leakcheck.Check(t)
	for round := 0; round < 50; round++ {
		var mu sync.Mutex
		closeReturned := false
		l := netem.NewWallLink(func(p interface{}) {
			mu.Lock()
			if closeReturned {
				t.Errorf("round %d: frame %v delivered after Close returned", round, p)
			}
			mu.Unlock()
		}, netem.Profile{Delay: 200 * time.Microsecond}, nil)
		for i := 0; i < 20; i++ {
			if err := l.Send(i, 100); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		// Race Close against the deliveries coming due.
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		mu.Lock()
		closeReturned = true
		mu.Unlock()
		if err := l.Send(99, 100); err == nil {
			t.Fatal("Send after Close succeeded")
		}
	}
	// Give any (buggy) stragglers a chance to fire before leakcheck.
	time.Sleep(2 * time.Millisecond)
}

// TestWallLinkDelivers: the production wall-clock path actually delivers
// frames, in order, after roughly the configured delay.
func TestWallLinkDelivers(t *testing.T) {
	defer leakcheck.Check(t)
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	start := time.Now() //softmow:allow determinism test measures wall latency of the wall scheduler
	l := netem.NewWallLink(func(p interface{}) {
		mu.Lock()
		got = append(got, p.(int))
		n := len(got)
		mu.Unlock()
		if n == 5 {
			close(done)
		}
	}, netem.Profile{Delay: 2 * time.Millisecond}, nil)
	for i := 0; i < 5; i++ {
		if err := l.Send(i, 100); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("frames not delivered")
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("delivered after %v, before the 2ms delay elapsed", elapsed)
	}
	mu.Lock()
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("delivered %v, want [0 1 2 3 4]", got)
	}
	mu.Unlock()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
