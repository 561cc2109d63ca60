package southbound

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// WriteDeadliner is implemented by connections whose Send can be bounded
// by a per-write deadline. ConnDevice derives the timeout from its own
// RequestTimeout at dial, so a stalled peer surfaces as a Send error
// instead of wedging every sender on the conn.
type WriteDeadliner interface {
	// SetWriteTimeout bounds each subsequent Send; 0 disables the bound.
	SetWriteTimeout(time.Duration)
}

// framePool recycles frame encode buffers across sends and connections.
var framePool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 4096)
	return &b
}}

// BinConn frames messages with the hand-rolled binary codec (codec.go)
// over a net.Conn. Encoding appends into a pooled buffer and decoding
// reads into a per-conn scratch slice, so steady-state sends and receives
// of hot-path messages do not allocate. Reads go through a buffer the conn
// owns, so a frame's length prefix and payload — and any frames the peer
// wrote back to back, like a FlowMod and the Barrier fencing it — arrive
// in one read of the socket.
type BinConn struct {
	nc net.Conn

	wM sync.Mutex // serializes writers on nc

	rM sync.Mutex
	// br buffers reads from nc, guarded by rM.
	br *bufio.Reader
	// rbuf is the receive scratch buffer, guarded by rM.
	rbuf []byte

	// writeTimeout bounds each Send in nanoseconds (0 = unbounded).
	writeTimeout atomic.Int64

	closeOnce sync.Once
	closeErr  error
	closed    atomic.Bool
}

// NewBinConn wraps a net.Conn in the binary codec.
func NewBinConn(nc net.Conn) *BinConn {
	return &BinConn{nc: nc, br: bufio.NewReaderSize(nc, readBufSize)}
}

// SetWriteTimeout implements WriteDeadliner.
func (c *BinConn) SetWriteTimeout(d time.Duration) {
	c.writeTimeout.Store(int64(d))
}

// readBufSize sizes the receive buffer: room for a few dozen hot-path
// frames (a FlowMod is ~100 bytes). A payload larger than the buffer is
// read straight into the scratch slice, bypassing it.
const readBufSize = 8 << 10

// fragChunkSize is the largest Frag.Data slice Send will emit per
// continuation frame. The margin below MaxFrameSize covers the frame
// header plus the fragment body's own fields, keeping every wire frame of
// a fragmented run within the hard per-frame limit.
const fragChunkSize = MaxFrameSize - 64

// Send implements Conn. With a write timeout set, the socket write is
// armed with a deadline; a peer that stops reading fails the Send within
// the timeout instead of blocking it (and every queued sender behind wM)
// forever. Close from another goroutine also unblocks an in-flight write.
// A logical frame whose payload exceeds MaxFrameSize is transparently
// split into a contiguous run of TypeFrag frames. A write that fails after
// part of a frame reached the socket closes the conn: the next frame would
// start mid-stream, and the peer could decode the torn bytes as a frame.
// Every later Send returns ErrClosed.
func (c *BinConn) Send(m Msg) error {
	bufp := framePool.Get().(*[]byte)
	buf, err := AppendFrame((*bufp)[:0], &m)
	if err != nil {
		framePool.Put(bufp)
		return err
	}
	*bufp = buf[:0]

	if len(buf)-4 > MaxFrameSize {
		err := c.sendFragmented(buf[4:])
		framePool.Put(bufp)
		return err
	}

	c.wM.Lock()
	if c.closed.Load() {
		c.wM.Unlock()
		framePool.Put(bufp)
		return ErrClosed
	}
	if wt := time.Duration(c.writeTimeout.Load()); wt > 0 {
		deadline := time.Now().Add(wt) //softmow:allow determinism write-deadline arming only, never feeds replayable state
		if err := c.nc.SetWriteDeadline(deadline); err != nil {
			c.wM.Unlock()
			framePool.Put(bufp)
			return c.sendErr(err)
		}
	}
	n, werr := c.nc.Write(buf)
	if werr != nil {
		werr = c.writeFailed(werr, n > 0)
	}
	c.wM.Unlock()
	framePool.Put(bufp)
	return werr
}

// sendFragmented writes one oversized logical payload as a run of
// TypeFrag wire frames. The writer lock is held across the whole run so
// frames from concurrent senders can never interleave into it; the
// receiver reassembles the run back into the original payload.
func (c *BinConn) sendFragmented(payload []byte) error {
	fbufp := framePool.Get().(*[]byte)
	defer framePool.Put(fbufp)
	c.wM.Lock()
	defer c.wM.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	for off := 0; off < len(payload); {
		n := len(payload) - off
		if n > fragChunkSize {
			n = fragChunkSize
		}
		chunk := payload[off : off+n]
		off += n
		fbuf, err := AppendFrame((*fbufp)[:0], &Msg{
			Type: TypeFrag,
			Body: Frag{Last: off == len(payload), Data: chunk},
		})
		if err != nil {
			return err
		}
		*fbufp = fbuf[:0]
		if wt := time.Duration(c.writeTimeout.Load()); wt > 0 {
			deadline := time.Now().Add(wt) //softmow:allow determinism write-deadline arming only, never feeds replayable state
			if err := c.nc.SetWriteDeadline(deadline); err != nil {
				return c.writeFailed(err, off > len(chunk))
			}
		}
		if n, err := c.nc.Write(fbuf); err != nil {
			// Any earlier fragment of the run reached the socket too.
			return c.writeFailed(err, n > 0 || off > len(chunk))
		}
	}
	return nil
}

// writeFailed maps a failed socket write to Send's error and, when the
// write left a torn frame on the stream, closes the conn. It runs under wM,
// so no other frame can follow the torn one.
func (c *BinConn) writeFailed(err error, torn bool) error {
	err = c.sendErr(err)
	if torn {
		_ = c.Close() //softmow:allow errdiscard the write error is what the caller acts on
	}
	return err
}

func (c *BinConn) sendErr(err error) error {
	if c.closed.Load() || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("southbound: write deadline exceeded: %w", err)
	}
	return fmt.Errorf("southbound: write: %w", err)
}

// Recv implements Conn. A run of TypeFrag frames is reassembled into the
// original logical frame before decoding; anything else decodes directly.
func (c *BinConn) Recv() (Msg, error) {
	c.rM.Lock()
	defer c.rM.Unlock()
	var assembled []byte
	for {
		payload, err := c.readFrameLocked()
		if err != nil {
			return Msg{}, err
		}
		m, err := DecodeFrame(payload)
		if err != nil {
			return Msg{}, err
		}
		if m.Type != TypeFrag {
			if assembled != nil {
				// The sender holds its writer lock across a fragment run,
				// so an interleaved frame means a broken peer.
				return Msg{}, wireErrorf("%s frame inside fragment run", m.Type)
			}
			return m, nil
		}
		f, ok := m.Body.(Frag)
		if !ok {
			return Msg{}, wireErrorf("frag body is %T", m.Body)
		}
		if len(assembled)+len(f.Data) > MaxAssembledSize {
			return Msg{}, wireErrorf("reassembled frame exceeds limit %d", MaxAssembledSize)
		}
		assembled = append(assembled, f.Data...)
		if f.Last {
			return DecodeFrame(assembled)
		}
	}
}

// readFrameLocked reads one length-prefixed wire frame into the receive scratch
// buffer and returns its payload. The returned slice is only valid until
// the next readFrameLocked call.
func (c *BinConn) readFrameLocked() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, c.recvErr(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		// The stream is unrecoverable past a bogus length; fail hard.
		return nil, wireErrorf("frame payload %d exceeds limit %d", n, MaxFrameSize)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	payload := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return nil, c.recvErr(err)
	}
	return payload, nil
}

func (c *BinConn) recvErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return io.EOF
	}
	return fmt.Errorf("southbound: read: %w", err)
}

// Close implements Conn. It also unblocks any Send stalled inside the
// socket write.
func (c *BinConn) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		c.closeErr = c.nc.Close()
	})
	return c.closeErr
}
