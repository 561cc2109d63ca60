package southbound

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/testutil/leakcheck"
)

// recordingConn counts Sends and flags any Send that arrives after the
// test marks the wrapper's Close as returned.
type recordingConn struct {
	closeReturned *atomic.Bool

	mu sync.Mutex
	// sent counts delivered messages, guarded by mu.
	sent int
	// late counts deliveries after Close returned, guarded by mu.
	late int
}

func (r *recordingConn) Send(m Msg) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent++
	if r.closeReturned.Load() {
		r.late++
	}
	return nil
}

func (r *recordingConn) Recv() (Msg, error) { return Msg{}, io.EOF }
func (r *recordingConn) Close() error       { return nil }

// TestImpairedConnCloseOrdering is the regression test for a close race:
// a queued frame must never land on the inner conn after Close returns. Races Close against deliveries coming due across
// many rounds and phases.
func TestImpairedConnCloseOrdering(t *testing.T) {
	defer leakcheck.Check(t)
	for round := 0; round < 100; round++ {
		var closeReturned atomic.Bool
		inner := &recordingConn{closeReturned: &closeReturned}
		c := NewImpairedConn(inner, netem.Profile{Delay: 100 * time.Microsecond}, nil)
		for i := 0; i < 20; i++ {
			if err := c.Send(Msg{Type: TypeEchoReply, Xid: uint32(i)}); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		// Vary the phase so some rounds close before anything is due,
		// some mid-burst, some after everything delivered.
		time.Sleep(time.Duration(round%8) * 50 * time.Microsecond)
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		closeReturned.Store(true)
		if err := c.Send(Msg{Type: TypeEchoReply}); err == nil {
			t.Fatal("Send after Close succeeded")
		}
	}
	// Let any (buggy) straggler goroutine fire before checking.
	time.Sleep(2 * time.Millisecond)
}

// TestImpairedConnCloseLate verifies the post-Close delivery count is
// actually zero (recordingConn.late) rather than merely racing clean.
func TestImpairedConnCloseLate(t *testing.T) {
	var closeReturned atomic.Bool
	inner := &recordingConn{closeReturned: &closeReturned}
	c := NewImpairedConn(inner, netem.Profile{Delay: 500 * time.Microsecond}, nil)
	for i := 0; i < 50; i++ {
		if err := c.Send(Msg{Type: TypeEchoReply, Xid: uint32(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	closeReturned.Store(true)
	time.Sleep(5 * time.Millisecond)
	inner.mu.Lock()
	defer inner.mu.Unlock()
	if inner.late != 0 {
		t.Fatalf("%d frames delivered after Close returned", inner.late)
	}
}

// TestImpairedConnPureDelay: under a delay-only profile frames arrive in
// order, no earlier than the configured delay, and none are lost.
func TestImpairedConnPureDelay(t *testing.T) {
	defer leakcheck.Check(t)
	a, b := Pipe(64)
	c := NewImpairedConn(a, netem.Profile{Delay: 2 * time.Millisecond}, nil)
	start := time.Now()
	const n = 10
	for i := 0; i < n; i++ {
		if err := c.Send(Msg{Type: TypeEchoReply, Xid: uint32(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Xid != uint32(i) {
			t.Fatalf("recv %d: got xid %d, FIFO violated", i, m.Xid)
		}
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("burst arrived after %v, before the 2ms delay elapsed", elapsed)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Fatalf("recv on closed pipe: %v, want EOF", err)
	}
}

// TestImpairedConnLossRecoversNothing: a lossy profile drops frames
// silently — Send still reports success, the link stats record the drop.
func TestImpairedConnLossRecoversNothing(t *testing.T) {
	defer leakcheck.Check(t)
	a, b := Pipe(1024)
	c := NewImpairedConn(a, netem.Profile{Loss: 0.5}, netem.LinkRNG(9, "test-loss"))
	const n = 500
	for i := 0; i < n; i++ {
		if err := c.Send(Msg{Type: TypeEchoReply, Xid: uint32(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	st := c.Link().Stats()
	if st.DroppedLoss == 0 || st.DroppedLoss == n {
		t.Fatalf("DroppedLoss = %d out of %d sends: loss model inert or total", st.DroppedLoss, n)
	}
	// Drain what survived; then tear down.
	survivors := int(st.Sent - st.DroppedLoss)
	for i := 0; i < survivors; i++ {
		if _, err := b.Recv(); err != nil {
			// Remaining survivors may still be in flight; that's fine —
			// the point of the count is the drop accounting above.
			break
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
