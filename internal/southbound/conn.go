package southbound

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Conn is a bidirectional message channel between a controller and a
// device (or between two controllers, for the RecA agent's parent link).
type Conn interface {
	// Send enqueues a message; it fails after Close.
	Send(Msg) error
	// Recv blocks until a message arrives or the connection closes, in
	// which case it returns io.EOF.
	Recv() (Msg, error)
	// Close tears down both directions. Idempotent.
	Close() error
}

// ErrClosed is returned by Send on a closed connection.
var ErrClosed = errors.New("southbound: connection closed")

// pipeQueue is one direction of a Pipe: a bounded FIFO under one mutex.
type pipeQueue struct {
	limit int

	mu sync.Mutex
	// buf is the backlog in arrival order, guarded by mu.
	buf []Msg
	// closed records Close from either end, guarded by mu.
	closed bool
	// nonEmpty wakes the receiver and nonFull the senders blocked at
	// limit; both wait on mu.
	nonEmpty, nonFull sync.Cond
}

func newPipeQueue(limit int) *pipeQueue {
	q := &pipeQueue{limit: max(limit, 1)}
	q.nonEmpty.L, q.nonFull.L = &q.mu, &q.mu
	return q
}

func (q *pipeQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nonEmpty.Broadcast()
	q.nonFull.Broadcast()
}

// pipeConn is one end of an in-process connection.
type pipeConn struct {
	out, in *pipeQueue

	rmu sync.Mutex // serializes receivers, as BinConn does
	// batch is the backlog the last refill took from in, consumed from
	// batch[next:] without touching in.mu; guarded by rmu.
	batch []Msg
	// next indexes the first undelivered message of batch, guarded by rmu.
	next int
}

// Pipe returns two connected in-process Conn endpoints holding up to
// buffer messages per direction (at least one); a Send beyond that blocks
// until the receiver takes the backlog. Closing either end closes both.
func Pipe(buffer int) (Conn, Conn) {
	ab, ba := newPipeQueue(buffer), newPipeQueue(buffer)
	return &pipeConn{out: ab, in: ba}, &pipeConn{out: ba, in: ab}
}

// Send implements Conn.
func (c *pipeConn) Send(m Msg) error {
	q := c.out
	q.mu.Lock()
	for len(q.buf) >= q.limit && !q.closed {
		q.nonFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	q.buf = append(q.buf, m)
	q.mu.Unlock()
	q.nonEmpty.Signal()
	return nil
}

// Recv implements Conn. One lock takes the whole backlog (swapping it for
// the emptied previous batch, so steady state allocates nothing) and the
// following calls return from it lock-free of the senders. Close does not
// drop in-flight traffic: queued messages keep coming until the backlog
// is empty, then Recv reports io.EOF.
func (c *pipeConn) Recv() (Msg, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.next == len(c.batch) {
		q := c.in
		q.mu.Lock()
		for len(q.buf) == 0 && !q.closed {
			q.nonEmpty.Wait()
		}
		if len(q.buf) == 0 {
			q.mu.Unlock()
			return Msg{}, io.EOF
		}
		c.batch, q.buf, c.next = q.buf, c.batch[:0], 0
		q.mu.Unlock()
		q.nonFull.Broadcast()
	}
	m := c.batch[c.next]
	c.batch[c.next] = Msg{}
	c.next++
	return m, nil
}

// Close implements Conn.
func (c *pipeConn) Close() error {
	c.out.close()
	c.in.close()
	return nil
}

// Handshake performs the Hello exchange from the initiating side and
// verifies version compatibility.
func Handshake(c Conn, sender string) error {
	if err := c.Send(Msg{Type: TypeHello, Body: Hello{Sender: sender, Version: ProtocolVersion}}); err != nil {
		return err
	}
	m, err := c.Recv()
	if err != nil {
		return err
	}
	if m.Type != TypeHello {
		return fmt.Errorf("southbound: expected hello, got %v", m.Type)
	}
	h, ok := m.Body.(Hello)
	if !ok {
		return fmt.Errorf("southbound: malformed hello body %T", m.Body)
	}
	if h.Version != ProtocolVersion {
		return fmt.Errorf("southbound: version mismatch: local %d, peer %d", ProtocolVersion, h.Version)
	}
	return nil
}

// Accept answers a Hello from the passive side.
func Accept(c Conn, sender string) (peer string, err error) {
	m, err := c.Recv()
	if err != nil {
		return "", err
	}
	if m.Type != TypeHello {
		return "", fmt.Errorf("southbound: expected hello, got %v", m.Type)
	}
	h, ok := m.Body.(Hello)
	if !ok {
		return "", fmt.Errorf("southbound: malformed hello body %T", m.Body)
	}
	if h.Version != ProtocolVersion {
		// Best-effort courtesy notice: the handshake is failing anyway, and
		// the error below already carries the full diagnosis.
		_ = c.Send(Msg{Type: TypeError, Body: Error{Code: ErrCodeVersionMismatch, Message: "version mismatch"}}) //softmow:allow errdiscard best-effort notice on an already-failing handshake
		return "", fmt.Errorf("southbound: version mismatch: local %d, peer %d", ProtocolVersion, h.Version)
	}
	if err := c.Send(Msg{Type: TypeHello, Body: Hello{Sender: sender, Version: ProtocolVersion}}); err != nil {
		return "", err
	}
	return h.Sender, nil
}
