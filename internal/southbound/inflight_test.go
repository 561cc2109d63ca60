package southbound

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sinkConn is a Conn that records the xids sent on it and never answers:
// the tests complete requests through Reply themselves.
type sinkConn struct {
	mu   sync.Mutex
	xids []uint32
}

func (c *sinkConn) Send(m Msg) error {
	c.mu.Lock()
	c.xids = append(c.xids, m.Xid)
	c.mu.Unlock()
	return nil
}
func (c *sinkConn) Recv() (Msg, error) { return Msg{}, io.EOF }
func (c *sinkConn) Close() error       { return nil }

func (c *sinkConn) sent() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.xids)
}

// once counts its completions and reports each on done.
type once struct {
	n    atomic.Int32
	done chan error
}

func (w *once) Done(_ Msg, err error) {
	w.n.Add(1)
	if w.done != nil {
		w.done <- err
	}
}

// retrier is a fence-like waiter: a timed-out attempt goes out again under
// a fresh xid with its timeout doubled, up to retries extra attempts.
type retrier struct {
	t        *Inflight
	timeout  time.Duration
	retries  int
	attempts int
	done     func(error)
}

func (r *retrier) send() {
	r.t.Request(Msg{Type: TypeBarrierRequest, Body: Barrier{}}, r, time.Now().Add(r.timeout<<uint(r.attempts)))
}

func (r *retrier) Done(_ Msg, err error) {
	if errors.Is(err, ErrTimeout) && r.attempts < r.retries {
		r.attempts++
		r.send()
		return
	}
	if errors.Is(err, ErrTimeout) {
		err = fmt.Errorf("fence failed after %d attempts: %w", r.attempts+1, err)
	}
	r.done(err)
}

// barrierTable wires a table to a device end that answers barriers until
// withhold is closed, after which barriers are swallowed and their arrival
// times reported on seen. Other requests are never answered.
func barrierTable(t *testing.T, withhold <-chan struct{}, seen chan<- time.Time) *Inflight {
	ctrlEnd, devEnd := Pipe(64)
	tab := NewInflight(ctrlEnd, nil)
	go func() {
		for {
			m, err := ctrlEnd.Recv()
			if err != nil {
				return
			}
			tab.Reply(m.Xid, m)
		}
	}()
	go func() {
		for {
			m, err := devEnd.Recv()
			if err != nil {
				return
			}
			if m.Type != TypeBarrierRequest {
				continue
			}
			select {
			case <-withhold:
				seen <- time.Now()
			default:
				_ = devEnd.Send(Msg{Type: TypeBarrierReply, Xid: m.Xid, Body: Barrier{}})
			}
		}
	}()
	t.Cleanup(func() {
		tab.Close()
		ctrlEnd.Close()
		tab.Wait()
	})
	return tab
}

// pipeline issues n fence-like requests with at most window in flight,
// each retried twice on timeout, and waits for all of them.
func pipeline(tb testing.TB, tab *Inflight, n, window int, timeout time.Duration) {
	tb.Helper()
	slots := make(chan struct{}, window)
	var mu sync.Mutex
	var firstErr error
	done := func(err error) {
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
		(&retrier{t: tab, timeout: timeout, retries: 2, done: done}).send()
	}
	for i := 0; i < window; i++ {
		slots <- struct{}{}
	}
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		tb.Fatalf("request failed: %v", firstErr)
	}
}

// TestFenceTimesOutBehindCompletedFences: a thousand fences complete and
// leave their (stale) deadlines queued ahead of one whose reply never
// comes. That one must still be noticed: three attempts, each backed off
// twice as long as the last, the failure inside 1.5x the nominal budget —
// the deadline timer may sleep through the stale entries, not past a live
// one. Completed entries leave the queue from its head, so the stale ones
// are held behind an unanswered request that is due first.
func TestFenceTimesOutBehindCompletedFences(t *testing.T) {
	withhold := make(chan struct{})
	seen := make(chan time.Time, 8)
	tab := barrierTable(t, withhold, seen)
	const rto = 100 * time.Millisecond
	// The clean phase runs under a timeout no box is slow enough to reach:
	// the timer never fires during it, so its deadlines are still queued
	// when it ends, however long it took.
	const long = 5 * time.Second
	tab.Request(Msg{Type: TypeEchoRequest, Body: Echo{}}, &once{}, time.Now().Add(long))

	const completed = 1000
	pipeline(t, tab, completed, 32, long)
	tab.mu.Lock()
	queued := len(tab.dl) - tab.head
	tab.mu.Unlock()
	if queued < completed {
		t.Fatalf("%d deadlines queued after %d clean fences: the stale entries this test needs are gone", queued, completed)
	}
	// Now put the stale deadlines where a clean phase that fits in one rto
	// would have left them — due before the withheld fence's — and re-arm
	// the timer for the head, as the insert that made it the head would have.
	tab.mu.Lock()
	staleAt := time.Now().Add(rto / 2)
	for i := tab.head; i < len(tab.dl); i++ {
		tab.dl[i].at = staleAt
	}
	tab.armed = staleAt
	tab.timer.Reset(rto / 2)
	tab.mu.Unlock()

	close(withhold)
	start := time.Now()
	errc := make(chan error, 1)
	(&retrier{t: tab, timeout: rto, retries: 2, done: func(err error) { errc <- err }}).send()
	err := <-errc
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "fence failed after 3 attempts") {
		t.Fatalf("withheld fence: %v, want failure after 3 attempts", err)
	}
	const budget = rto + 2*rto + 4*rto
	if elapsed < budget*9/10 || elapsed > budget*3/2 {
		t.Fatalf("withheld fence failed after %v, want within [0.9, 1.5] x %v", elapsed, budget)
	}
	if len(seen) != 3 {
		t.Fatalf("device saw %d barrier attempts, want 3", len(seen))
	}
	t0, t1, t2 := <-seen, <-seen, <-seen
	if gap := t1.Sub(t0); gap < rto*9/10 || gap > rto*2 {
		t.Errorf("first retry after %v, want ~%v", gap, rto)
	}
	if gap := t2.Sub(t1); gap < 2*rto*9/10 || gap > 2*rto*3/2 {
		t.Errorf("second retry after %v, want ~%v (backoff)", gap, 2*rto)
	}
}

// TestDeadlineQueueBoundedAndScrubbed: the queue's backing array tracks the
// requests of one timeout period, not every request ever issued, and a
// popped slot is zeroed.
func TestDeadlineQueueBoundedAndScrubbed(t *testing.T) {
	tab := barrierTable(t, make(chan struct{}), nil)
	const timeout = 2 * time.Millisecond
	const rounds, perRound = 100, 100
	for r := 0; r < rounds; r++ {
		pipeline(t, tab, perRound, 32, timeout)
		time.Sleep(3 * timeout) // the round's deadlines pass; the timer drops them
	}
	time.Sleep(20 * time.Millisecond)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if c := cap(tab.dl); c > 8*perRound {
		t.Errorf("deadline queue backing array grew to %d slots over %d requests, %d per period", c, rounds*perRound, perRound)
	}
	if live := len(tab.dl) - tab.head; live != 0 {
		t.Errorf("%d deadlines still queued after every request completed and expired", live)
	}
	for i, e := range tab.dl[:cap(tab.dl)] {
		if e != (expiry{}) {
			t.Fatalf("slot %d of the drained deadline queue still holds %+v", i, e)
		}
	}
}

// TestInflightCompletesOnceUnderRace: replies, expiries and Close race
// over the same entries, and each entry still completes exactly once.
func TestInflightCompletesOnceUnderRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		conn := &sinkConn{}
		tab := NewInflight(conn, nil)
		const n = 200
		ws := make([]*once, n)
		for i := range ws {
			ws[i] = &once{}
			tab.Request(Msg{Type: TypeEchoRequest}, ws[i], time.Now().Add(time.Duration(rand.Intn(2000))*time.Microsecond))
		}
		xids := conn.sent()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(xids); i += 4 {
					tab.Reply(xids[i], Msg{Type: TypeEchoReply, Xid: xids[i]})
					if i%16 == 0 {
						time.Sleep(50 * time.Microsecond)
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(rand.Intn(1500)) * time.Microsecond)
		tab.Close()
		wg.Wait()
		tab.Wait()
		for i, w := range ws {
			if c := w.n.Load(); c != 1 {
				t.Fatalf("round %d: entry %d completed %d times, want once", round, i, c)
			}
		}
		if err := tab.Drain(time.Millisecond); err != nil {
			t.Fatalf("closed table: Drain = %v", err)
		}
	}
}

// TestInflightRekeyedReplyIsStale: once a timed-out entry goes out again
// under a fresh xid, a late reply to the old xid completes nothing, and a
// reply to the new one completes it.
func TestInflightRekeyedReplyIsStale(t *testing.T) {
	conn := &sinkConn{}
	tab := NewInflight(conn, nil)
	defer tab.Close()
	errc := make(chan error, 1)
	r := &retrier{t: tab, timeout: 5 * time.Millisecond, retries: 1, done: func(err error) { errc <- err }}
	r.send()
	var xids []uint32
	for deadline := time.Now().Add(5 * time.Second); len(xids) < 2; xids = conn.sent() {
		if time.Now().After(deadline) {
			t.Fatalf("sent %v: the timed-out entry was not re-sent", xids)
		}
		time.Sleep(time.Millisecond)
	}
	if xids[1] == xids[0] {
		t.Fatalf("retry reused xid %d", xids[0])
	}
	if tab.Reply(xids[0], Msg{Type: TypeBarrierReply}) {
		t.Fatal("a reply to the timed-out xid completed an entry")
	}
	if !tab.Reply(xids[1], Msg{Type: TypeBarrierReply}) {
		t.Fatal("a reply to the current xid completed nothing")
	}
	if err := <-errc; err != nil {
		t.Fatalf("re-keyed entry completed with %v, want its reply", err)
	}
}

// orderLog records the order in which waiters complete.
type orderLog struct {
	mu  sync.Mutex
	ids []int
}

type logged struct {
	id  int
	log *orderLog
}

func (w logged) Done(_ Msg, err error) {
	if !errors.Is(err, ErrClosed) {
		panic(fmt.Sprintf("entry %d completed with %v, want ErrClosed", w.id, err))
	}
	w.log.mu.Lock()
	w.log.ids = append(w.log.ids, w.id)
	w.log.mu.Unlock()
}

// TestInflightCloseCompletesInXidOrder: Close completes the outstanding
// entries in the order their xids were drawn, and a request after Close
// fails at once.
func TestInflightCloseCompletesInXidOrder(t *testing.T) {
	tab := NewInflight(&sinkConn{}, nil)
	log := &orderLog{}
	const n = 64
	for i := 0; i < n; i++ {
		tab.Request(Msg{Type: TypeEchoRequest}, logged{id: i, log: log}, time.Now().Add(time.Minute))
	}
	tab.Close()
	if !slices.IsSorted(log.ids) || len(log.ids) != n {
		t.Fatalf("Close completed %v, want 0..%d in order", log.ids, n-1)
	}
	tab.Close() // idempotent
	tab.Request(Msg{Type: TypeEchoRequest}, logged{id: n, log: log}, time.Now().Add(time.Minute))
	if len(log.ids) != n+1 || log.ids[n] != n {
		t.Fatalf("a request after Close did not fail at once: %v", log.ids)
	}
}

// TestInflightDrain: Drain returns at once on an empty or closed table,
// errors when an entry outlives its timeout, and returns as soon as the
// last entry completes.
func TestInflightDrain(t *testing.T) {
	conn := &sinkConn{}
	tab := NewInflight(conn, nil)
	if err := tab.Drain(time.Millisecond); err != nil {
		t.Fatalf("empty table: Drain = %v", err)
	}
	tab.Request(Msg{Type: TypeEchoRequest}, &once{}, time.Now().Add(time.Minute))
	if err := tab.Drain(5 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "1 requests still in flight") {
		t.Fatalf("one entry in flight: Drain = %v", err)
	}
	xid := conn.sent()[0]
	go func() {
		time.Sleep(5 * time.Millisecond)
		tab.Reply(xid, Msg{Type: TypeEchoReply})
	}()
	start := time.Now()
	if err := tab.Drain(5 * time.Second); err != nil {
		t.Fatalf("entry answered while draining: Drain = %v", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("Drain returned %v after the last reply", waited)
	}
	tab.Request(Msg{Type: TypeEchoRequest}, &once{}, time.Now().Add(time.Minute))
	go func() {
		time.Sleep(5 * time.Millisecond)
		tab.Close()
	}()
	if err := tab.Drain(5 * time.Second); err != nil {
		t.Fatalf("table closed while draining: Drain = %v", err)
	}
}

// TestInflightQueueBoundedByLiveEntries: a steady stream of requests under
// a 30 s timeout, each answered while a window of others is in flight,
// keeps the deadline queue at the size of the window — completed entries
// leave from its head, they do not wait out their 30 s.
func TestInflightQueueBoundedByLiveEntries(t *testing.T) {
	conn := &sinkConn{}
	tab := NewInflight(conn, nil)
	defer tab.Close()
	const window, total = 16, 20_000
	var pending []uint32
	maxCap := 0
	for i := 0; i < total; i++ {
		tab.Request(Msg{Type: TypeNbTeardown}, &once{}, time.Now().Add(30*time.Second))
		pending = append(pending, conn.xids[len(conn.xids)-1])
		if len(pending) == window {
			// Answer all but the newest, the second-oldest first: a reply
			// may overtake an older one.
			tab.Reply(pending[1], Msg{})
			tab.Reply(pending[0], Msg{})
			for _, x := range pending[2 : window-1] {
				tab.Reply(x, Msg{})
			}
			pending = pending[window-1:]
		}
		tab.mu.Lock()
		if q := len(tab.dl) - tab.head; q > window {
			tab.mu.Unlock()
			t.Fatalf("after %d requests the queue holds %d deadlines for at most %d live entries", i+1, q, window)
		}
		maxCap = max(maxCap, cap(tab.dl))
		tab.mu.Unlock()
	}
	if maxCap > 4*window {
		t.Fatalf("deadline queue backing array grew to %d slots for %d live entries", maxCap, window)
	}
}
