package netem

import (
	"math"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/simnet"
)

// Scheduler is the injectable clock behind a Link: Now reports link-local
// time (time since the scheduler's epoch) and At schedules a callback at
// an absolute link-local time. Production links run on a WallScheduler;
// determinism tests run the identical pipeline on a SimScheduler so
// delivery traces are pure functions of (seed, profile).
type Scheduler interface {
	// Now returns the current link-local time.
	Now() time.Duration
	// At schedules fn to run at link-local time t (immediately if t is
	// in the past). Callbacks run sequentially per scheduler.
	At(t time.Duration, fn func())
}

// wallEvent is one pending WallScheduler callback.
type wallEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before orders events by due time with insertion-order tie-breaking.
func (e *wallEvent) before(o *wallEvent) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// wallQueue is a binary min-heap of pending events on a typed slice: no
// interface boxing per push, and a FIFO link's pushes (non-decreasing due
// times) never sift.
type wallQueue []wallEvent

func (q *wallQueue) push(ev wallEvent) {
	h := append(*q, ev)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

func (q *wallQueue) pop() func() {
	h := *q
	fn, n := h[0].fn, len(h)-1
	h[0], h[n] = h[n], wallEvent{}
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return fn
}

// schedWakeups counts iterations of WallScheduler.run that parked on the
// timer: with netem.delivered it reads as wake-ups per frame.
var schedWakeups = metrics.NewCounter("netem.sched_wakeups")

// WallScheduler drives Link callbacks off the wall clock with a single
// timer goroutine. The wall clock here only shapes measured latency; it
// never feeds replayable state (impairment decisions are drawn from the
// link's seeded RNG, not from time), so seed determinism of the workload
// digests is unaffected.
//
// The goroutine parks on one timer and is woken only by it: At re-arms
// the timer itself, and only when the new event is due before the time
// the goroutine will next look at the queue (sleepUntil). A FIFO link
// enqueues behind the head, so its frames cost no wake-up of their own.
type WallScheduler struct {
	epoch time.Time
	timer *time.Timer   // armed under mu; run is its only receiver
	done  chan struct{} // closed on Stop
	loop  sync.WaitGroup

	mu sync.Mutex
	// q holds pending events, guarded by mu.
	q wallQueue
	// seq is the next insertion sequence number, guarded by mu.
	seq uint64
	// sleepUntil is the link-local time run will next examine the queue
	// unprompted: the head's due time while parked on the timer, idle
	// while parked on an empty queue, 0 while it is firing callbacks (it
	// re-examines the queue before parking). guarded by mu.
	sleepUntil time.Duration
	// stopped records Stop, guarded by mu.
	stopped bool
}

// idle is sleepUntil on an empty queue: any new event is due before it.
const idle = time.Duration(math.MaxInt64)

// NewWallScheduler starts a wall-clock scheduler; the caller must Stop it.
func NewWallScheduler() *WallScheduler {
	s := &WallScheduler{
		epoch: time.Now(), //softmow:allow determinism wall epoch shapes measured latency only, never replayable state
		timer: time.NewTimer(time.Hour),
		done:  make(chan struct{}),
	}
	s.timer.Stop()
	s.loop.Add(1)
	go s.run()
	return s
}

// Now implements Scheduler.
func (s *WallScheduler) Now() time.Duration {
	return time.Now().Sub(s.epoch) //softmow:allow determinism wall clock shapes measured latency only, never replayable state
}

// At implements Scheduler.
func (s *WallScheduler) At(t time.Duration, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.q.push(wallEvent{at: t, seq: s.seq, fn: fn})
	s.seq++
	if t < s.sleepUntil {
		s.sleepUntil = t
		s.timer.Reset(t - s.Now())
	}
}

// Stop terminates the timer goroutine and waits for it to exit; pending
// callbacks are dropped, as frames in flight are when a link dies.
// Idempotent.
func (s *WallScheduler) Stop() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		s.q = nil
		close(s.done)
	}
	s.mu.Unlock()
	s.loop.Wait()
}

// run is the timer goroutine: each wake-up pops every due event under one
// lock and one clock reading, fires them in order, and parks until the
// next due time. A tick that finds nothing due (a re-arm racing the
// expiry it replaced) just re-arms.
func (s *WallScheduler) run() {
	defer s.loop.Done()
	defer s.timer.Stop()
	var due []func()
	for {
		s.mu.Lock()
		now := s.Now()
		for len(s.q) > 0 && s.q[0].at <= now {
			due = append(due, s.q.pop())
		}
		switch {
		case len(due) > 0:
			s.sleepUntil = 0
		case len(s.q) > 0:
			s.sleepUntil = s.q[0].at
			s.timer.Reset(s.sleepUntil - now)
		default:
			s.sleepUntil = idle
		}
		s.mu.Unlock()
		if len(due) > 0 {
			for i, fn := range due {
				fn()
				due[i] = nil
			}
			due = due[:0]
			continue
		}
		schedWakeups.Inc()
		select {
		case <-s.timer.C:
		case <-s.done:
			return
		}
	}
}

// SimScheduler adapts a simnet.Sim discrete-event simulator to the
// Scheduler interface, so the exact production impairment pipeline can be
// replayed on virtual time in determinism tests.
type SimScheduler struct {
	sim *simnet.Sim
}

// NewSimScheduler wraps sim. The caller drives the simulation (Run /
// RunUntil); the scheduler only enqueues.
//
//softmow:allow testonly ROADMAP item 8: virtual-time latency runs the impaired pipeline on it
func NewSimScheduler(sim *simnet.Sim) *SimScheduler {
	return &SimScheduler{sim: sim}
}

// Now implements Scheduler.
func (s *SimScheduler) Now() time.Duration { return s.sim.Now() }

// At implements Scheduler. Past times are clamped to now (simnet.At
// panics on the past; a frame due "now" is simply next in line).
func (s *SimScheduler) At(t time.Duration, fn func()) {
	if now := s.sim.Now(); t < now {
		t = now
	}
	s.sim.At(t, fn)
}
