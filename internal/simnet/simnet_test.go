package simnet

import (
	"container/heap"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	end := s.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("end time = %v", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events must run FIFO, got %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at time.Duration
	s.At(time.Second, func() {
		s.After(500*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 1500*time.Millisecond {
		t.Fatalf("After fired at %v", at)
	}
}

func TestAfterNegativeClamped(t *testing.T) {
	s := New()
	ran := false
	s.After(-5*time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("negative After should clamp to now and still run")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic when scheduling in the past")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	ev := s.At(time.Second, func() { ran = true })
	s.Cancel(ev)
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// double cancel is a no-op
	s.Cancel(ev)
	s.Cancel(nil)
}

func TestCancelMiddleOfQueue(t *testing.T) {
	s := New()
	var got []int
	s.At(1*time.Second, func() { got = append(got, 1) })
	ev := s.At(2*time.Second, func() { got = append(got, 2) })
	s.At(3*time.Second, func() { got = append(got, 3) })
	s.Cancel(ev)
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []int
	s.At(time.Second, func() { got = append(got, 1) })
	s.At(2*time.Second, func() { got = append(got, 2) })
	s.At(3*time.Second, func() { got = append(got, 3) })
	end := s.RunUntil(2 * time.Second)
	if end != 2*time.Second {
		t.Fatalf("end = %v", end)
	}
	if len(got) != 2 {
		t.Fatalf("events at deadline should run: %v", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.Run()
	if len(got) != 3 {
		t.Fatalf("remaining event should run on next Run: %v", got)
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	s.At(time.Second, func() { count++; s.Stop() })
	s.At(2*time.Second, func() { count++ })
	s.Run()
	if count != 1 {
		t.Fatalf("Stop should halt processing, count = %d", count)
	}
	if s.Pending() != 1 {
		t.Fatalf("stopped event should stay queued")
	}
}

func TestStep(t *testing.T) {
	s := New()
	count := 0
	s.At(time.Second, func() { count++ })
	s.At(2*time.Second, func() { count++ })
	if !s.Step() {
		t.Fatal("step should run an event")
	}
	if count != 1 || s.Now() != time.Second {
		t.Fatalf("count=%d now=%v", count, s.Now())
	}
	s.Step()
	if s.Step() {
		t.Fatal("step on empty queue should be false")
	}
}

func TestProcessedCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.At(time.Duration(i)*time.Second, func() {})
	}
	s.Run()
	if s.Processed != 5 {
		t.Fatalf("Processed = %d", s.Processed)
	}
}

func TestNestedScheduling(t *testing.T) {
	// An event chain that reschedules itself n times must advance the
	// clock monotonically.
	s := New()
	var times []time.Duration
	var tick func()
	n := 0
	tick = func() {
		times = append(times, s.Now())
		n++
		if n < 5 {
			s.After(time.Second, tick)
		}
	}
	s.After(0, tick)
	s.Run()
	if len(times) != 5 {
		t.Fatalf("ticks = %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] != times[i-1]+time.Second {
			t.Fatalf("non-monotone tick times %v", times)
		}
	}
}

func TestRNGDeterministicAndStreamIndependent(t *testing.T) {
	a1 := RNG(42, "alpha")
	a2 := RNG(42, "alpha")
	b := RNG(42, "beta")
	sameCount := 0
	for i := 0; i < 100; i++ {
		v1, v2, v3 := a1.Int63(), a2.Int63(), b.Int63()
		if v1 != v2 {
			t.Fatal("same seed+stream must reproduce")
		}
		if v1 == v3 {
			sameCount++
		}
	}
	if sameCount > 2 {
		t.Fatalf("streams look correlated: %d collisions", sameCount)
	}
}

// Property: for any set of non-negative offsets, events execute in
// nondecreasing time order.
func TestOrderPropertyQuick(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		var ran []time.Duration
		for _, o := range offsets {
			d := time.Duration(o) * time.Millisecond
			s.At(d, func() { ran = append(ran, s.Now()) })
		}
		s.Run()
		if len(ran) != len(offsets) {
			return false
		}
		for i := 1; i < len(ran); i++ {
			if ran[i] < ran[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Cancel removes a scheduled event. Cancelling an already-run or
// already-cancelled event is a no-op.
func (s *Sim) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 || ev.index >= len(s.queue) || s.queue[ev.index] != ev {
		return
	}
	heap.Remove(&s.queue, ev.index)
	ev.index = -1
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (s *Sim) Stop() { s.stopped = true }

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }

// Step executes exactly one event if one is queued, returning whether an
// event ran.
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*Event)
	ev.index = -1
	s.now = ev.At
	s.Processed++
	ev.Run()
	return true
}
