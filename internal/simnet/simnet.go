// Package simnet provides the discrete-event simulation kernel used by the
// SoftMoW reproduction: a virtual clock, an event queue with deterministic
// tie-breaking, and a splittable deterministic random source.
//
// Every timing-sensitive experiment in the paper (discovery convergence,
// controller queuing delay, 48-hour handover time series) runs on virtual
// time so results are reproducible and independent of wall-clock load.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Event is a closure scheduled to run at a virtual time.
type Event struct {
	At  time.Duration
	Run func()

	seq   uint64 // insertion order for deterministic FIFO tie-breaking
	index int    // heap index
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x interface{}) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Sim is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; model concurrency by scheduling events.
type Sim struct {
	now     time.Duration
	queue   eventQueue
	nextSeq uint64
	stopped bool

	// Processed counts events executed since construction (for tests and
	// runaway detection).
	Processed int
}

// New returns a simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// it is always a bug in the model.
func (s *Sim) At(t time.Duration, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("simnet: scheduling at %v before now %v", t, s.now))
	}
	ev := &Event{At: t, Run: fn, seq: s.nextSeq}
	s.nextSeq++
	heap.Push(&s.queue, ev)
	return ev
}

// After schedules fn to run d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time.
func (s *Sim) Run() time.Duration {
	return s.RunUntil(1<<62 - 1)
}

// RunUntil executes events with At ≤ deadline (or until Stop/drain) and
// advances the clock to min(deadline, last event time). Events scheduled at
// exactly the deadline are executed.
func (s *Sim) RunUntil(deadline time.Duration) time.Duration {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		ev := s.queue[0]
		if ev.At > deadline {
			break
		}
		heap.Pop(&s.queue)
		ev.index = -1
		s.now = ev.At
		s.Processed++
		ev.Run()
	}
	if s.now < deadline && len(s.queue) == 0 {
		// Clock does not advance past the last event when draining; callers
		// that need the deadline reached can schedule a sentinel.
		return s.now
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
	return s.now
}

// RNG derives a deterministic child random source from a root seed and a
// stream label, so independent model components draw from uncorrelated but
// reproducible streams.
func RNG(seed int64, stream string) *rand.Rand {
	h := int64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(stream); i++ {
		h ^= int64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}
