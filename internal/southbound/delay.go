package southbound

import (
	"math/rand"

	"repro/internal/netem"
)

// ImpairedConn applies a netem impairment profile to the Send leg of a
// Conn: every Send traverses the modeled WAN link (delay, jitter, loss,
// reordering, rate cap, partitions) before reaching the inner connection,
// while Recv stays immediate — the opposite leg is modeled by wrapping
// the peer's conn instead. Wrapping the connection an agent serves
// therefore impairs the device→controller leg (replies and events), so
// one wrapped direction models the full round trip.
//
// Dropped frames still return nil from Send — a datagram sender on a
// lossy WAN gets no error either; recovery is the protocol's job (the
// ConnDevice fence pipeline retries timed-out barriers, discovery
// re-emits, liveness probes re-ping).
type ImpairedConn struct {
	inner Conn
	link  *netem.Link[Msg]
}

// NewImpairedConn wraps inner so every Send traverses a WAN link impaired
// per prof, drawing impairment randomness from rng (nil is fine for
// profiles with no random dimension; see netem.LinkRNG for deriving
// per-link seeded streams). The link runs on its own wall-clock
// scheduler, stopped on Close.
func NewImpairedConn(inner Conn, prof netem.Profile, rng *rand.Rand) *ImpairedConn {
	c := &ImpairedConn{inner: inner}
	c.link = netem.NewWallLink(c.deliver, prof, rng)
	return c
}

// Link exposes the underlying netem link for live reconfiguration
// (SetProfile to activate impairment after a clean bootstrap, SetDown to
// force a partition) and per-link Stats.
func (c *ImpairedConn) Link() *netem.Link[Msg] { return c.link }

// deliver is the link's sink: a surviving frame lands on the inner conn.
func (c *ImpairedConn) deliver(m Msg) {
	// The inner conn is gone; this frame and everything behind it dies
	// with it, exactly as frames in flight do on a real broken link.
	_ = c.inner.Send(m) //softmow:allow errdiscard frames in flight die with a broken link; recovery is the fence/probe protocol's job
}

// Send implements Conn: the message enters the impairment pipeline and
// the call returns immediately (an agent emitting a reply is not the
// party paying the propagation time — the wire is).
func (c *ImpairedConn) Send(m Msg) error {
	if err := c.link.Send(m, wireSize(&m)); err != nil {
		return ErrClosed
	}
	return nil
}

// Recv implements Conn, unimpaired (the opposite leg is modeled by
// wrapping the peer's conn instead).
func (c *ImpairedConn) Recv() (Msg, error) { return c.inner.Recv() }

// Close implements Conn. The inner conn closes first so a delivery
// blocked on a full in-process pipe unblocks, then the link shuts down:
// after Close returns, no queued frame is ever delivered to the inner
// conn — frames in flight die, as they do when a real link is cut.
func (c *ImpairedConn) Close() error {
	err := c.inner.Close()
	if cerr := c.link.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// wireSize estimates m's encoded frame size in bytes for the netem rate
// model. It deliberately trades exactness for zero allocation on the
// Send path: fixed header plus a per-body-type estimate that scales with
// the variable-length parts that matter (batch length, port count).
func wireSize(m *Msg) int {
	const header = 16 // length prefix + type + xid + datapath
	switch b := m.Body.(type) {
	case FlowMod:
		return header + 96
	case FlowModBatch:
		return header + 8 + 96*len(b.Mods)
	case FeatureReply:
		return header + 64 + 32*len(b.Ports)
	case PacketIn, PacketOut:
		return header + 128
	case Echo:
		return header + 8 + len(b.Payload)
	case Frag:
		return header + 8 + len(b.Data)
	default:
		return header + 32
	}
}
