package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/southbound"
)

// span is one traced interval, recorded from the benchmark's own side of
// a call into a layer. Times are nanoseconds since the run's epoch. The
// program carries no correlation ID across its wire (ROADMAP item 4b), so
// frame spans cannot name the op that caused them: Parent stays 0 for
// them, and is the flap's ID for its repair.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"` // op | flap | repair | fence | peer
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Kind is the op kind, or the frame type that opened an exchange.
	Kind string `json:"kind,omitempty"`
	// Where is the leaf (ops, flaps) or the root↔child link (frames).
	Where  string `json:"where,omitempty"`
	Seq    int    `json:"seq,omitempty"`
	Paths  int    `json:"paths,omitempty"`
	Failed bool   `json:"failed,omitempty"`
}

// tracer holds a traced run's spans in memory until the run ends. While
// on is false the connection wrappers pass traffic through untouched:
// the traced run alternates traced and untraced segments, and the rate
// difference between the two is the tracing overhead.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	return s.ID
}

// alternate switches recording off and on at every segment boundary of
// the measured window, starting now with an untraced segment, until the
// returned stop is called.
func (t *tracer) alternate(seg time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(seg)
		defer tick.Stop()
		for {
			select {
			case <-done:
				t.on.Store(false)
				return
			case <-tick.C:
				t.on.Store(!t.on.Load())
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// tracedAt reports whether an instant, given as nanoseconds into the
// measured window, falls in a traced (odd) segment. A nil tracer traces
// nothing.
func (t *tracer) tracedAt(ns int64, seg time.Duration) bool {
	return t != nil && ns/int64(seg)%2 == 1
}

// addFlapSpans records each flap (link down → link up) and, as its child,
// the leaf's repair.
func (t *tracer) addFlapSpans(recs []flapRec) {
	for _, f := range recs {
		where := fmt.Sprintf("L%d", f.region)
		id := t.add(span{Name: "flap", Start: f.start, End: f.start + int64(f.repair), Where: where})
		t.add(span{Name: "repair", Parent: id, Start: f.start, End: f.start + int64(f.repair),
			Where: where, Paths: f.repaired, Failed: f.unrouted > 0})
	}
}

// write dumps every span as one JSON object per line and returns how
// many: the recorded flap, fence and peer spans, then one span per op
// that ran from index from on, streamed from the load's records — the
// driver keeps those for its percentiles anyway, so op spans cost a
// traced run neither time in the window nor memory.
func (t *tracer) write(path string, l *load, from int) (spans int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close() // the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return 0, err
		}
	}
	spans = len(t.spans)
	for i := from; i < len(l.ops); i++ {
		r, op := &l.recs[i], &l.ops[i]
		if r.end == 0 {
			continue
		}
		spans++
		if err := enc.Encode(span{ID: int64(spans), Name: "op", Start: r.from, End: r.end,
			Kind: op.Kind.String(), Where: l.sys.regions[op.Region].Leaf.ID, Seq: op.Seq, Failed: r.failed}); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return spans, f.Close()
}

// countingConn counts the Read and Write calls BinConn makes on the
// socket — one call is one syscall unless the read parks on the poller —
// and the bytes they move.
type countingConn struct {
	net.Conn
	tr                            *tracer
	reads, writes, rbytes, wbytes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.on.Load() {
		c.reads.Add(1)
		c.rbytes.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.tr.on.Load() {
		c.writes.Add(1)
		c.wbytes.Add(int64(n))
	}
	return n, err
}

// tracedConn is the root-side end of one root↔child connection, wrapped
// to see every frame: it counts frames, times each fence (BarrierRequest
// sent → BarrierReply with the same xid received) and each child request
// the root serves (request received → reply with the same xid sent), and
// keeps the first frame of each type for the codec probes.
type tracedConn struct {
	*southbound.BinConn
	sock *countingConn
	tr   *tracer
	link string

	sent, recvd, peerReqs atomic.Int64

	mu sync.Mutex
	// fences and peers map an open exchange's xid to its start and the
	// frame type that opened it; guarded by mu.
	fences map[uint32]int64
	peers  map[uint32]peerOpen
	// fenceRTT holds every completed fence's round trip; guarded by mu.
	fenceRTT []time.Duration
	// captured holds the encoding of the first frame seen of each type
	// (encoded at once: a sender may recycle the body after Send);
	// guarded by mu.
	captured map[southbound.MsgType][]byte
}

type peerOpen struct {
	start int64
	typ   southbound.MsgType
}

// peerKinds names the child-originated request types once: MsgType.String
// rebuilds its table on every call, too dear for the receive path.
var peerKinds = func() map[southbound.MsgType]string {
	m := make(map[southbound.MsgType]string)
	for t := southbound.TypeHello; t <= southbound.TypeNbUEState; t++ {
		if t.PeerRequest() {
			m[t] = t.String()
		}
	}
	return m
}()

func newTracedConn(nc net.Conn, tr *tracer, link string) *tracedConn {
	sock := &countingConn{Conn: nc, tr: tr}
	return &tracedConn{
		BinConn: southbound.NewBinConn(sock), sock: sock, tr: tr, link: link,
		fences:   make(map[uint32]int64),
		peers:    make(map[uint32]peerOpen),
		captured: make(map[southbound.MsgType][]byte),
	}
}

func (c *tracedConn) capture(m southbound.Msg) {
	if _, ok := c.captured[m.Type]; ok {
		return
	}
	if frame, err := southbound.AppendFrame(nil, &m); err == nil {
		c.captured[m.Type] = frame
	}
}

// Send implements southbound.Conn.
func (c *tracedConn) Send(m southbound.Msg) error {
	if c.tr.on.Load() {
		c.sent.Add(1)
		now := c.tr.now()
		c.mu.Lock()
		c.capture(m)
		if m.Type == southbound.TypeBarrierRequest {
			c.fences[m.Xid] = now
		} else if p, ok := c.peers[m.Xid]; ok && (m.Type == southbound.TypeNbPathReply || m.Type == southbound.TypeNbAck) {
			delete(c.peers, m.Xid)
			c.tr.add(span{Name: "peer", Start: p.start, End: now, Kind: peerKinds[p.typ], Where: c.link})
		}
		c.mu.Unlock()
	}
	return c.BinConn.Send(m)
}

// Recv implements southbound.Conn.
func (c *tracedConn) Recv() (southbound.Msg, error) {
	m, err := c.BinConn.Recv()
	if err != nil || !c.tr.on.Load() {
		return m, err
	}
	c.recvd.Add(1)
	now := c.tr.now()
	c.mu.Lock()
	c.capture(m)
	switch {
	case m.Type.PeerRequest():
		c.peerReqs.Add(1)
		c.peers[m.Xid] = peerOpen{start: now, typ: m.Type}
	case m.Type == southbound.TypeBarrierReply:
		if start, ok := c.fences[m.Xid]; ok {
			delete(c.fences, m.Xid)
			c.fenceRTT = append(c.fenceRTT, time.Duration(now-start))
			c.tr.add(span{Name: "fence", Start: start, End: now, Kind: "barrier-req", Where: c.link})
		}
	}
	c.mu.Unlock()
	return m, err
}
