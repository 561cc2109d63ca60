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

// chanConn is one end of an in-process connection.
type chanConn struct {
	out chan<- Msg
	in  <-chan Msg

	mu sync.Mutex
	// closed records a local Close, guarded by mu.
	closed bool
	done   chan struct{} // shared between both ends
}

// Pipe returns two connected in-process Conn endpoints with the given
// buffer depth per direction. Closing either end closes both.
func Pipe(buffer int) (Conn, Conn) {
	ab := make(chan Msg, buffer)
	ba := make(chan Msg, buffer)
	done := make(chan struct{})
	a := &chanConn{out: ab, in: ba, done: done}
	b := &chanConn{out: ba, in: ab, done: done}
	return a, b
}

// Send implements Conn.
func (c *chanConn) Send(m Msg) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.mu.Unlock()
	select {
	case c.out <- m:
		return nil
	case <-c.done:
		return ErrClosed
	}
}

// Recv implements Conn.
func (c *chanConn) Recv() (Msg, error) {
	// Prefer buffered messages so close doesn't drop in-flight traffic: a
	// closed connection keeps yielding queued messages until the buffer is
	// empty, then reports io.EOF.
	select {
	case m := <-c.in:
		return m, nil
	default:
	}
	select {
	case m := <-c.in:
		return m, nil
	case <-c.done:
		select {
		case m := <-c.in:
			return m, nil
		default:
			return Msg{}, io.EOF
		}
	}
}

// Close implements Conn.
func (c *chanConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		select {
		case <-c.done:
		default:
			close(c.done)
		}
	}
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
