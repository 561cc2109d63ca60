package southbound

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
)

// blockedSend fills a's outgoing direction to capacity, starts one more
// Send, checks that it blocks, and returns the channel its result arrives on.
func blockedSend(t *testing.T, a Conn, capacity int) <-chan error {
	t.Helper()
	for i := 0; i < capacity; i++ {
		if err := a.Send(Msg{Type: TypeEchoRequest, Xid: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	res := make(chan error, 1)
	go func() { res <- a.Send(Msg{Type: TypeEchoRequest, Xid: uint32(capacity + 1)}) }()
	select {
	case err := <-res:
		t.Fatalf("Send past capacity %d returned %v instead of blocking", capacity, err)
	case <-time.After(20 * time.Millisecond):
	}
	return res
}

// TestPipeSendBlocksAtCapacity: a Send beyond the buffer blocks until the
// receiver takes the backlog, and nothing is lost or reordered across it.
func TestPipeSendBlocksAtCapacity(t *testing.T) {
	defer leakcheck.Check(t)
	const capacity = 4
	a, b := Pipe(capacity)
	defer a.Close()
	res := blockedSend(t, a, capacity)
	for want := uint32(1); want <= capacity+1; want++ {
		m, err := b.Recv()
		if err != nil || m.Xid != want {
			t.Fatalf("Recv = xid %d, %v; want xid %d", m.Xid, err, want)
		}
		if want == 1 {
			select {
			case err := <-res:
				if err != nil {
					t.Fatalf("unblocked Send: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Send still blocked after Recv made room")
			}
		}
	}
}

// TestPipeCloseUnblocksSend: a Send blocked at capacity returns ErrClosed
// when either end closes, and the backlog from before the Close is still
// delivered, in order, before io.EOF.
func TestPipeCloseUnblocksSend(t *testing.T) {
	defer leakcheck.Check(t)
	const capacity = 3
	for _, closer := range []string{"sender end", "receiver end"} {
		t.Run(closer, func(t *testing.T) {
			a, b := Pipe(capacity)
			res := blockedSend(t, a, capacity)
			if closer == "sender end" {
				a.Close()
			} else {
				b.Close()
			}
			select {
			case err := <-res:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("blocked Send returned %v, want ErrClosed", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Close did not unblock the Send")
			}
			if err := a.Send(Msg{}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send after Close = %v, want ErrClosed", err)
			}
			for want := uint32(1); want <= capacity; want++ {
				if m, err := b.Recv(); err != nil || m.Xid != want {
					t.Fatalf("Recv after Close = xid %d, %v; want xid %d", m.Xid, err, want)
				}
			}
			if _, err := b.Recv(); err != io.EOF {
				t.Fatalf("Recv after the backlog = %v, want io.EOF", err)
			}
		})
	}
}

// TestPipeCloseMidBatch: the receiver has taken a backlog and consumed part
// of it when the pipe closes; the rest of that batch still arrives.
func TestPipeCloseMidBatch(t *testing.T) {
	a, b := Pipe(8)
	for i := 1; i <= 5; i++ {
		if err := a.Send(Msg{Xid: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if m, err := b.Recv(); err != nil || m.Xid != 1 {
		t.Fatalf("first Recv = %d, %v", m.Xid, err)
	}
	b.Close()
	for want := uint32(2); want <= 5; want++ {
		if m, err := b.Recv(); err != nil || m.Xid != want {
			t.Fatalf("Recv = xid %d, %v; want xid %d", m.Xid, err, want)
		}
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Fatalf("Recv after the batch = %v, want io.EOF", err)
	}
}

// TestPipeConcurrentSendersKeepOrder: eight senders through a small buffer
// (so they block and wake repeatedly); each sender's messages arrive in
// the order it sent them and none is lost.
func TestPipeConcurrentSendersKeepOrder(t *testing.T) {
	defer leakcheck.Check(t)
	const senders, each = 8, 2000
	a, b := Pipe(16)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				if err := a.Send(Msg{Type: MsgType(s), Xid: uint32(i)}); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	go func() { wg.Wait(); a.Close() }()
	var last [senders]uint32
	for {
		m, err := b.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if m.Xid != last[m.Type]+1 {
			t.Fatalf("sender %d: got message %d after %d", m.Type, m.Xid, last[m.Type])
		}
		last[m.Type] = m.Xid
	}
	for s, n := range last {
		if n != each {
			t.Errorf("sender %d: %d of %d messages arrived", s, n, each)
		}
	}
}

// BenchmarkPipeRoundTrip is one request and one reply across a Pipe
// between two goroutines: the floor under every fenced modification.
func BenchmarkPipeRoundTrip(b *testing.B) {
	x, y := Pipe(64)
	defer x.Close()
	go func() {
		for {
			m, err := y.Recv()
			if err != nil {
				return
			}
			m.Type = TypeBarrierReply
			if y.Send(m) != nil {
				return
			}
		}
	}()
	req := Msg{Type: TypeBarrierRequest, Body: Barrier{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Xid = uint32(i)
		if err := x.Send(req); err != nil {
			b.Fatal(err)
		}
		if _, err := x.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
