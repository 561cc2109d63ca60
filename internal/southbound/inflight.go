package southbound

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ErrTimeout completes a request whose deadline passed before its reply.
var ErrTimeout = errors.New("southbound: request timed out")

// A Waiter is one request awaiting its reply in an Inflight table.
type Waiter interface {
	// Done completes the request: with its reply and a nil error, with
	// ErrTimeout when its deadline passed, with ErrClosed when the table
	// closed, or with the error that failed its send. The table calls it
	// once per xid, outside its lock, and it must not block. A waiter that
	// retries re-sends itself from Done under a fresh xid.
	Done(m Msg, err error)
}

// Inflight is one connection's table of requests awaiting a reply, and the
// only place an endpoint of the tree waits for one: a leaf's switch
// channel, a parent's child G-switch channel and a child's northbound link
// all complete through it. It owns the connection's transaction IDs, maps
// each outstanding xid to its waiter, and expires deadlines from one queue
// sorted by expiry on a single timer. A retry goes out under a fresh xid,
// so a late reply to the old one is stale and completes nothing. Retry
// policy belongs to the waiter; the table only keys, times and completes.
type Inflight struct {
	conn Conn
	// wakeups, when set, counts timer callbacks.
	wakeups *metrics.Counter
	xid     atomic.Uint32

	mu sync.Mutex
	// live maps each outstanding xid to its waiter, guarded by mu.
	live map[uint32]Waiter
	// dl is the deadline queue sorted by expiry (adaptive timeouts and
	// backoff make deadlines non-monotonic); its entries are dl[head:], and
	// popped slots are zeroed. An entry whose xid left live is stale; the
	// head is never stale, so the queue holds no more than the span of
	// live entries. guarded by mu.
	dl []expiry
	// head indexes the earliest queued deadline in dl, guarded by mu.
	head int
	// armed is when the timer is due, zero when it is not armed; guarded
	// by mu.
	armed time.Time
	// expiring counts entries the timer took whose Done has not returned,
	// so a retry in progress still counts as in flight. guarded by mu.
	expiring int
	// closed records Close, guarded by mu.
	closed bool
	// idle is closed when nothing is left in flight; a waiting Drain makes
	// it. guarded by mu.
	idle chan struct{}

	// timer runs expire when the earliest deadline is due.
	timer *time.Timer
	// busy counts timer callbacks past the closed check, for Wait.
	busy sync.WaitGroup
}

// expiry is one queued deadline.
type expiry struct {
	xid uint32
	at  time.Time
}

// NewInflight returns the table for requests sent over conn. wakeups, when
// non-nil, counts the timer's callbacks.
func NewInflight(conn Conn, wakeups *metrics.Counter) *Inflight {
	return &Inflight{conn: conn, wakeups: wakeups, live: make(map[uint32]Waiter)}
}

// NextXid draws a transaction ID for a message that expects no reply of
// its own, such as a modification fenced by a later barrier.
func (t *Inflight) NextXid() uint32 { return t.xid.Add(1) }

// Request sends m under a fresh xid and registers w for its reply until
// deadline. w completes exactly once per xid: with the reply, on a
// timeout, on Close, or with the send's error.
func (t *Inflight) Request(m Msg, w Waiter, deadline time.Time) {
	m.Xid = t.xid.Add(1)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		w.Done(Msg{}, ErrClosed)
		return
	}
	t.live[m.Xid] = w
	t.insertLocked(expiry{xid: m.Xid, at: deadline})
	t.mu.Unlock()
	if err := t.conn.Send(m); err != nil {
		t.complete(m.Xid, Msg{}, err)
	}
}

// call is a blocking request's waiter: Done hands the outcome to the one
// receiver.
type call chan callResult

type callResult struct {
	m   Msg
	err error
}

// Done implements Waiter.
func (c call) Done(m Msg, err error) { c <- callResult{m, err} }

// Call is Request's blocking form: it returns the reply, or the error that
// completed the request.
func (t *Inflight) Call(m Msg, deadline time.Time) (Msg, error) {
	c := make(call, 1)
	t.Request(m, c, deadline)
	r := <-c
	return r.m, r.err
}

// Reply completes the request waiting on xid with m, and reports whether
// one was; a reply to a timed-out, retried or unknown xid completes
// nothing.
func (t *Inflight) Reply(xid uint32, m Msg) bool { return t.complete(xid, m, nil) }

// complete takes xid's entry out of the table, if it is still there, and
// completes it with m and err.
func (t *Inflight) complete(xid uint32, m Msg, err error) bool {
	t.mu.Lock()
	w, ok := t.live[xid]
	if ok {
		t.dropLocked(xid)
	}
	t.mu.Unlock()
	if ok {
		w.Done(m, err)
	}
	return ok
}

// dropLocked removes xid from live, pops the stale entries that leaves at
// the head of the queue and wakes a Drain when nothing is left in flight.
// Caller holds mu. The timer stays armed: it finds nothing due and re-arms
// for the new head.
func (t *Inflight) dropLocked(xid uint32) {
	delete(t.live, xid)
	for t.head < len(t.dl) {
		if _, ok := t.live[t.dl[t.head].xid]; ok {
			break
		}
		t.dl[t.head] = expiry{}
		t.head++
	}
	if t.head == len(t.dl) {
		t.dl, t.head = t.dl[:0], 0
	}
	t.idleLocked()
}

// idleLocked closes idle once nothing is in flight; caller holds mu.
func (t *Inflight) idleLocked() {
	if t.idle != nil && len(t.live)+t.expiring == 0 {
		close(t.idle)
		t.idle = nil
	}
}

// insertLocked queues e in expiry order and arms the timer when e is due
// before it; caller holds mu. The common case, a stable timeout, appends
// at the tail and touches no timer.
func (t *Inflight) insertLocked(e expiry) {
	// Compact instead of growing once half the slice is popped slots, so a
	// steady stream reuses one backing array.
	if t.head > 0 && t.head >= len(t.dl)/2 && len(t.dl) == cap(t.dl) {
		t.dl, t.head = slices.Delete(t.dl, 0, t.head), 0 // zeroes the vacated tail
	}
	t.dl = append(t.dl, e)
	q := t.dl[t.head:]
	i := len(q) - 1
	if i > 0 && q[i-1].at.After(e.at) {
		i = sort.Search(i, func(j int) bool { return q[j].at.After(e.at) })
		copy(q[i+1:], q[i:])
		q[i] = e
	}
	if i == 0 {
		t.armLocked(e.at)
	}
}

// armLocked sets the timer for at unless it is already due earlier;
// caller holds mu.
func (t *Inflight) armLocked(at time.Time) {
	if !t.armed.IsZero() && !at.Before(t.armed) {
		return
	}
	t.armed = at
	d := time.Until(at)
	if t.timer == nil {
		t.timer = time.AfterFunc(d, t.expire)
		return
	}
	t.timer.Reset(d)
}

// expire is the timer's callback: it takes every due entry out of the
// table, completes each with ErrTimeout in deadline order, and re-arms for
// the earliest live deadline (or leaves the timer unarmed when there is
// none), so requests answered in time never wake it. A callback that finds
// the table closed does nothing; one that does not is counted before Close
// can begin, so Wait covers it.
func (t *Inflight) expire() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.busy.Add(1)
	defer t.busy.Done()
	if t.wakeups != nil {
		t.wakeups.Inc()
	}
	// Read under mu: callbacks can overlap, and one holding an older time
	// would re-arm the timer late.
	now := time.Now() //softmow:allow determinism request deadlines pace timeouts only, never replayable state
	t.armed = time.Time{}
	var due []Waiter
	for t.head < len(t.dl) {
		e := t.dl[t.head]
		w, ok := t.live[e.xid]
		if ok && e.at.After(now) {
			t.armLocked(e.at)
			break
		}
		t.dl[t.head] = expiry{}
		t.head++
		if ok {
			delete(t.live, e.xid)
			due = append(due, w)
		}
	}
	t.expiring += len(due)
	t.mu.Unlock()
	for _, w := range due {
		w.Done(Msg{}, ErrTimeout)
	}
	t.mu.Lock()
	t.expiring -= len(due)
	t.idleLocked()
	t.mu.Unlock()
}

// Close completes every outstanding request once with ErrClosed, in xid
// order, and fails every later Request the same way. Idempotent.
func (t *Inflight) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	live := t.live
	t.live = nil
	t.dl, t.head = nil, 0
	if t.timer != nil {
		t.timer.Stop()
	}
	if t.idle != nil {
		close(t.idle)
		t.idle = nil
	}
	t.mu.Unlock()
	xids := make([]uint32, 0, len(live))
	for x := range live {
		xids = append(xids, x)
	}
	slices.Sort(xids)
	for _, x := range xids {
		live[x].Done(Msg{}, ErrClosed)
	}
}

// Wait blocks until a timer callback in flight has returned. Call it
// after Close, never from a Done.
func (t *Inflight) Wait() { t.busy.Wait() }

// Drain waits until no request is in flight or the table is closed, and
// errors when the timeout elapses first.
func (t *Inflight) Drain(timeout time.Duration) error {
	t.mu.Lock()
	if !t.closed && t.idle == nil && len(t.live)+t.expiring > 0 {
		t.idle = make(chan struct{})
	}
	idle := t.idle
	t.mu.Unlock()
	if idle == nil {
		return nil
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-idle:
		return nil
	case <-timer.C:
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.live) + t.expiring; n > 0 && !t.closed {
		return fmt.Errorf("%d requests still in flight after %v", n, timeout)
	}
	return nil
}
