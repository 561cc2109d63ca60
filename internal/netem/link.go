package netem

import (
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Process-wide impairment counters, aggregated across every live link (a
// workload run also keeps per-link Stats; these feed the runtime metrics
// dump and the loadgen impairment report).
var (
	netemSent          = metrics.NewCounter("netem.sent")
	netemDelivered     = metrics.NewCounter("netem.delivered")
	netemDropLoss      = metrics.NewCounter("netem.dropped_loss")
	netemDropOverflow  = metrics.NewCounter("netem.dropped_overflow")
	netemDropPartition = metrics.NewCounter("netem.dropped_partition")
	netemReordered     = metrics.NewCounter("netem.reordered")
	netemDelay         = metrics.NewDurationHist("netem.delay")
)

// Stats counts one link's frame fates. Snapshot with Link.Stats.
type Stats struct {
	// Sent counts Send calls that were not rejected by Close.
	Sent int64 `json:"sent"`
	// Delivered counts frames handed to the sink.
	Delivered int64 `json:"delivered"`
	// DroppedLoss counts frames dropped by the i.i.d. or Gilbert–Elliott
	// loss model.
	DroppedLoss int64 `json:"dropped_loss"`
	// DroppedOverflow counts frames tail-dropped by the rate-cap queue
	// bound.
	DroppedOverflow int64 `json:"dropped_overflow"`
	// DroppedPartition counts frames dropped inside a partition window
	// or while the link was forced down.
	DroppedPartition int64 `json:"dropped_partition"`
	// Reordered counts frames exempted from FIFO delivery.
	Reordered int64 `json:"reordered"`
}

// Add accumulates o into s — aggregation across the links of a cluster.
func (s *Stats) Add(o Stats) {
	s.Sent += o.Sent
	s.Delivered += o.Delivered
	s.DroppedLoss += o.DroppedLoss
	s.DroppedOverflow += o.DroppedOverflow
	s.DroppedPartition += o.DroppedPartition
	s.Reordered += o.Reordered
}

// Deliver is a Link's sink: it receives each surviving payload when its
// impaired delivery time arrives. It runs on the scheduler's callback
// goroutine, so it must not block indefinitely.
type Deliver[T any] func(payload T)

// Link applies a Profile to a one-way stream of opaque payloads: Send
// stamps each frame with the impairment pipeline's verdict (drop, or a
// delivery time composed of queueing, serialization, propagation, and
// jitter) and the scheduler delivers survivors to the sink in FIFO order
// unless the profile reorders them.
//
// All impairment randomness comes from the per-link seeded RNG, never
// from the clock, so a Link driven by a SimScheduler produces a delivery
// trace that is a pure function of (seed, profile, send sequence).
type Link[T any] struct {
	sched Scheduler
	sink  Deliver[T]
	own   *WallScheduler // stopped on Close when the link owns its scheduler
	// fireNext is l.deliverNext bound once, so scheduling an in-order
	// frame allocates nothing.
	fireNext func()

	mu sync.Mutex
	// prof is the active impairment profile, guarded by mu.
	prof Profile
	// rng is the per-link random source, guarded by mu.
	rng *rand.Rand
	// geBad records the Gilbert–Elliott chain state, guarded by mu.
	geBad bool
	// lastDue is the FIFO delivery horizon: the latest scheduled
	// delivery time of any non-reordered frame, guarded by mu.
	lastDue time.Duration
	// busyUntil is when the rate-capped serializer frees up, guarded by mu.
	busyUntil time.Duration
	// down forces a partition regardless of profile windows, guarded by mu.
	down bool
	// closed records Close, guarded by mu.
	closed bool
	// stats counts frame fates, guarded by mu.
	stats Stats
	// fifo holds the in-order frames awaiting delivery, oldest at
	// fifo[head:]; their due times never decrease and the scheduler fires
	// equal times in insertion order, so the k-th fireNext callback
	// belongs to the k-th frame. guarded by mu.
	fifo []T
	// head indexes the oldest undelivered frame in fifo, guarded by mu.
	head int

	// inflight tracks deliveries past the closed check, so Close can
	// wait out any sink call already in progress.
	inflight sync.WaitGroup
}

// NewLink creates a link delivering through sched to sink under prof,
// drawing impairment randomness from rng. The caller owns sched's
// lifecycle. rng may be nil for a profile that needs no randomness
// (pure delay/rate/partition); a randomized profile with a nil rng
// falls back to a fixed-seed source.
func NewLink[T any](sched Scheduler, sink Deliver[T], prof Profile, rng *rand.Rand) *Link[T] {
	if rng == nil {
		rng = LinkRNG(0, "default")
	}
	l := &Link[T]{sched: sched, sink: sink, prof: prof, rng: rng}
	l.fireNext = l.deliverNext
	return l
}

// NewWallLink creates a link with its own private WallScheduler, stopped
// automatically on Close. This is the production path for wrapping live
// connections.
func NewWallLink[T any](sink Deliver[T], prof Profile, rng *rand.Rand) *Link[T] {
	ws := NewWallScheduler()
	l := NewLink(ws, sink, prof, rng)
	l.own = ws
	return l
}

// SetProfile swaps the active impairment profile. Frames already
// scheduled keep their original delivery times; the Gilbert–Elliott chain
// state and rate-cap backlog carry over. Used by the workload harness to
// bootstrap on a clean link and activate impairment once the handshake is
// done.
func (l *Link[T]) SetProfile(p Profile) {
	l.mu.Lock()
	l.prof = p
	l.mu.Unlock()
}

// SetDown forces the link into (or out of) a partition immediately,
// independent of the profile's scheduled windows. Frames sent while down
// are dropped; frames already in flight still arrive, as light already
// on the fiber does.
func (l *Link[T]) SetDown(down bool) {
	l.mu.Lock()
	l.down = down
	l.mu.Unlock()
}

// Stats snapshots the link's frame-fate counters.
func (l *Link[T]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Send runs payload (size bytes on the wire, for the rate model) through
// the impairment pipeline. A dropped frame still returns nil — the sender
// of a datagram on a lossy WAN gets no error either; only a closed link
// reports ErrClosed.
func (l *Link[T]) Send(payload T, size int) error {
	now := l.sched.Now()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.stats.Sent++
	netemSent.Inc()

	// Partition: forced down or inside a scheduled window.
	if l.down || l.prof.Partitioned(now) {
		l.stats.DroppedPartition++
		l.mu.Unlock()
		netemDropPartition.Inc()
		return nil
	}

	// Loss: the Gilbert–Elliott chain advances per frame when configured,
	// otherwise a single i.i.d. draw.
	if ge := l.prof.GE; ge != nil {
		if l.geBad {
			if l.rng.Float64() < ge.PBG {
				l.geBad = false
			}
		} else if l.rng.Float64() < ge.PGB {
			l.geBad = true
		}
		lossP := ge.LossGood
		if l.geBad {
			lossP = ge.LossBad
		}
		if lossP > 0 && l.rng.Float64() < lossP {
			l.stats.DroppedLoss++
			l.mu.Unlock()
			netemDropLoss.Inc()
			return nil
		}
	} else if l.prof.Loss > 0 && l.rng.Float64() < l.prof.Loss {
		l.stats.DroppedLoss++
		l.mu.Unlock()
		netemDropLoss.Inc()
		return nil
	}

	// Rate cap: frames serialize one after another at RateMbps; the
	// backlog (bytes not yet on the wire) is tail-dropped past QueueBytes.
	base := now
	if l.prof.RateMbps > 0 {
		bytesPerSec := l.prof.RateMbps * 1e6 / 8
		if l.prof.QueueBytes > 0 && l.busyUntil > now {
			backlog := int(float64(l.busyUntil-now) / float64(time.Second) * bytesPerSec)
			if backlog+size > l.prof.QueueBytes {
				l.stats.DroppedOverflow++
				l.mu.Unlock()
				netemDropOverflow.Inc()
				return nil
			}
		}
		txTime := time.Duration(float64(size) / bytesPerSec * float64(time.Second))
		start := now
		if l.busyUntil > start {
			start = l.busyUntil
		}
		l.busyUntil = start + txTime
		base = l.busyUntil
	}

	// Delay + jitter, then FIFO chaining: a frame never overtakes an
	// earlier one unless the reorder model exempts it.
	due := base + l.prof.Delay + l.prof.jitterDraw(l.rng)
	reordered := false
	if l.prof.Reorder > 0 && l.rng.Float64() < l.prof.Reorder {
		reordered = true
		due += l.prof.reorderGap()
		l.stats.Reordered++
	} else {
		if due < l.lastDue {
			due = l.lastDue
		}
		l.lastDue = due
		// Compact instead of growing once half the slice is delivered
		// frames, so a steady stream reuses one backing array.
		if l.head > 0 && l.head >= len(l.fifo)/2 && len(l.fifo) == cap(l.fifo) {
			l.fifo, l.head = slices.Delete(l.fifo, 0, l.head), 0 // zeroes the vacated tail
		}
		l.fifo = append(l.fifo, payload)
	}
	l.mu.Unlock()
	netemDelay.Observe(due - now)
	if reordered {
		// A reordered frame leaves the FIFO chain, so it carries its own
		// payload instead of a queue position.
		netemReordered.Inc()
		l.sched.At(due, func() { l.deliver(payload, false) })
	} else {
		l.sched.At(due, l.fireNext)
	}
	return nil
}

// deliverNext hands the oldest in-order frame to the sink.
func (l *Link[T]) deliverNext() {
	var zero T
	l.deliver(zero, true)
}

// deliver hands one frame whose delivery time arrived to the sink — the
// head of the in-order queue, or the reordered payload given — unless the
// link closed first.
func (l *Link[T]) deliver(payload T, next bool) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if next {
		var zero T
		payload, l.fifo[l.head] = l.fifo[l.head], zero
		l.head++
	}
	l.inflight.Add(1)
	l.stats.Delivered++
	l.mu.Unlock()
	netemDelivered.Inc()
	l.sink(payload)
	l.inflight.Done()
}

// Close stops the link: subsequent Sends fail with ErrClosed, scheduled
// but undelivered frames are dropped, and any sink call already in
// progress completes before Close returns — after Close, the sink is
// never invoked again. Idempotent.
func (l *Link[T]) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		if l.own != nil {
			l.own.Stop()
		}
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.inflight.Wait()
	if l.own != nil {
		l.own.Stop()
	}
	return nil
}
