package southbound

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/dataplane"
	"repro/internal/discovery"
)

// Binary wire format (DESIGN.md §7). Each message is one length-prefixed
// frame:
//
//	offset size  field
//	0      4     payload length N, big endian (excludes these 4 bytes)
//	4      1     wire version (WireVersion)
//	5      1     message type (MsgType)
//	6      4     xid, big endian
//	10     2     datapath length L, big endian
//	12     L     datapath bytes
//	12+L   …     body (per-type layout below)
//
// Every body is hand-encoded from the same primitives: fixed-width big
// endian integers, floats as their IEEE-754 bits (so +Inf bandwidth and
// every fabric metric survive bit-exact — the state digests depend on
// it), length-prefixed strings, counted sequences, and a presence byte
// before an optional *VFabric or *Packet. A zero-length sequence decodes
// to nil. This file is the only place that knows the layout.

// WireVersion is the binary framing version byte. Decoders reject frames
// carrying any other value, giving the format room to evolve. Version 2
// hand-codes the FeatureReply, PacketIn, PacketOut and NbFabric bodies
// that version 1 nested as gob blobs; version 3 adds the transfer path ID
// to NbPathReply.
const WireVersion = 3

// Control payload tags: PacketIn.Control and PacketOut.Control are a
// closed union on the wire. Link-discovery frames are the only payload
// any sender puts there; anything else fails to encode.
const (
	controlNil       = 0
	controlDiscovery = 1
)

// MaxFrameSize bounds one frame's payload ON THE WIRE. Oversized length
// prefixes are rejected before any allocation, so a corrupt or hostile
// peer cannot make Recv allocate unbounded memory. Logical messages whose
// encoding exceeds this limit are carried as a run of TypeFrag
// continuation frames (each itself within the limit) and reassembled by
// the receiving BinConn, up to MaxAssembledSize.
const MaxFrameSize = 1 << 20

// MaxAssembledSize bounds a reassembled logical frame: the largest
// payload AppendFrame will produce and DecodeFrame will accept. A large
// region's northbound abstraction or prefix snapshot can exceed one wire
// frame, but 16 MiB of control state on one message indicates a bug or a
// hostile peer.
const MaxAssembledSize = 16 << 20

// String length limits within a frame: generic strings (owners, names,
// prefixes) carry a 2-byte length; echo payloads a 4-byte one.
const maxWireString = math.MaxUint16

type wireError struct{ msg string }

func (e *wireError) Error() string { return "southbound: wire: " + e.msg }

func wireErrorf(format string, args ...interface{}) error {
	return &wireError{msg: fmt.Sprintf(format, args...)}
}

// AppendFrame appends the frame encoding of m (length prefix included) to
// dst and returns the extended slice. Encoding into a caller-owned buffer
// keeps the hot path allocation-free: Send reuses one pooled buffer per
// write.
func AppendFrame(dst []byte, m *Msg) ([]byte, error) {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // payload length, patched below
	dst = append(dst, WireVersion, byte(m.Type))
	dst = binary.BigEndian.AppendUint32(dst, m.Xid)
	var err error
	if dst, err = appendString(dst, string(m.Datapath)); err != nil {
		return nil, err
	}
	if dst, err = appendBody(dst, m); err != nil {
		return nil, err
	}
	payload := len(dst) - lenAt - 4
	if payload > MaxAssembledSize {
		return nil, wireErrorf("frame payload %d exceeds limit %d", payload, MaxAssembledSize)
	}
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(payload))
	return dst, nil
}

func appendBody(dst []byte, m *Msg) ([]byte, error) {
	switch m.Type {
	case TypeHello:
		b, ok := m.Body.(Hello)
		if !ok {
			return nil, wireErrorf("hello body is %T", m.Body)
		}
		var err error
		if dst, err = appendString(dst, b.Sender); err != nil {
			return nil, err
		}
		return appendI32(dst, b.Version), nil

	case TypeEchoRequest, TypeEchoReply:
		b, ok := m.Body.(Echo)
		if !ok {
			return nil, wireErrorf("echo body is %T", m.Body)
		}
		return appendLongString(dst, b.Payload)

	case TypeFeatureRequest:
		return dst, nil

	case TypeBarrierRequest, TypeBarrierReply:
		return dst, nil

	case TypeFlowMod:
		b, ok := m.Body.(FlowMod)
		if !ok {
			return nil, wireErrorf("flow-mod body is %T", m.Body)
		}
		return appendFlowMod(dst, &b)

	case TypeFlowModBatch:
		b, ok := m.Body.(FlowModBatch)
		if !ok {
			return nil, wireErrorf("flow-mod-batch body is %T", m.Body)
		}
		var err error
		if dst, err = appendCount(dst, len(b.Mods), "batched mods"); err != nil {
			return nil, err
		}
		for i := range b.Mods {
			if dst, err = appendFlowMod(dst, &b.Mods[i]); err != nil {
				return nil, err
			}
		}
		return dst, nil

	case TypePortStatus:
		b, ok := m.Body.(PortStatus)
		if !ok {
			return nil, wireErrorf("port-status body is %T", m.Body)
		}
		dst = appendI32(dst, b.Port)
		return appendBool(dst, b.Up), nil

	case TypeRoleRequest:
		b, ok := m.Body.(RoleRequest)
		if !ok {
			return nil, wireErrorf("role-request body is %T", m.Body)
		}
		var err error
		if dst, err = appendString(dst, b.Controller); err != nil {
			return nil, err
		}
		return append(dst, byte(b.Role)), nil

	case TypeRoleReply:
		b, ok := m.Body.(RoleReply)
		if !ok {
			return nil, wireErrorf("role-reply body is %T", m.Body)
		}
		var err error
		if dst, err = appendString(dst, b.Controller); err != nil {
			return nil, err
		}
		return append(dst, byte(b.Role)), nil

	case TypeError:
		b, ok := m.Body.(Error)
		if !ok {
			return nil, wireErrorf("error body is %T", m.Body)
		}
		dst = appendI32(dst, b.Code)
		return appendString(dst, b.Message)

	case TypeFrag:
		b, ok := m.Body.(Frag)
		if !ok {
			return nil, wireErrorf("frag body is %T", m.Body)
		}
		dst = appendBool(dst, b.Last)
		if len(b.Data) > MaxFrameSize {
			return nil, wireErrorf("fragment of %d bytes exceeds limit", len(b.Data))
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Data)))
		return append(dst, b.Data...), nil

	case TypeNbBearer:
		b, ok := m.Body.(NbBearer)
		if !ok {
			return nil, wireErrorf("nb-bearer body is %T", m.Body)
		}
		dst = appendI32(dst, b.From)
		var err error
		if dst, err = appendString(dst, b.Prefix); err != nil {
			return nil, err
		}
		dst = appendI32(dst, b.Objective)
		dst = appendI32(dst, b.MaxHops)
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.MaxLatency))
		dst = appendF64(dst, b.MinBandwidth)
		dst = appendI32(dst, b.MaxTotalHops)
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.MaxTotalRTT))
		if dst, err = appendMatch(dst, &b.Match); err != nil {
			return nil, err
		}
		return appendF64(dst, b.Demand), nil

	case TypeNbPathReply:
		b, ok := m.Body.(NbPathReply)
		if !ok {
			return nil, wireErrorf("nb-path-reply body is %T", m.Body)
		}
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.Path))
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.Transfer))
		var err error
		if dst, err = appendString(dst, b.Owner); err != nil {
			return nil, err
		}
		return appendString(dst, b.Err)

	case TypeNbHandover:
		b, ok := m.Body.(NbHandover)
		if !ok {
			return nil, wireErrorf("nb-handover body is %T", m.Body)
		}
		var err error
		for _, s := range []string{b.UE, string(b.SrcGBS), string(b.SrcBS),
			string(b.DstGBS), string(b.DstBS), b.Prefix} {
			if dst, err = appendString(dst, s); err != nil {
				return nil, err
			}
		}
		dst = appendI32(dst, b.QoS)
		return appendI32(dst, b.Objective), nil

	case TypeNbTeardown:
		b, ok := m.Body.(NbTeardown)
		if !ok {
			return nil, wireErrorf("nb-teardown body is %T", m.Body)
		}
		var err error
		if dst, err = appendString(dst, b.Owner); err != nil {
			return nil, err
		}
		return binary.BigEndian.AppendUint64(dst, uint64(b.Path)), nil

	case TypeNbAck:
		b, ok := m.Body.(NbAck)
		if !ok {
			return nil, wireErrorf("nb-ack body is %T", m.Body)
		}
		return appendString(dst, b.Err)

	case TypeNbInterdomain:
		b, ok := m.Body.(NbInterdomain)
		if !ok {
			return nil, wireErrorf("nb-interdomain body is %T", m.Body)
		}
		var err error
		if dst, err = appendCount(dst, len(b.Options), "route options"); err != nil {
			return nil, err
		}
		for _, o := range b.Options {
			if dst, err = appendString(dst, o.Prefix); err != nil {
				return nil, err
			}
			if dst, err = appendString(dst, o.Egress); err != nil {
				return nil, err
			}
			dst = appendI32(dst, o.Port)
			dst = appendI32(dst, o.Hops)
			dst = binary.BigEndian.AppendUint64(dst, uint64(o.RTT))
		}
		return dst, nil

	case TypeNbReabstract:
		return dst, nil

	case TypeNbUEState:
		b, ok := m.Body.(NbUEState)
		if !ok {
			return nil, wireErrorf("nb-ue-state body is %T", m.Body)
		}
		if len(b.Rows) > math.MaxInt32 {
			return nil, wireErrorf("%d ue rows exceed limit", len(b.Rows))
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Rows)))
		var err error
		for _, r := range b.Rows {
			for _, s := range []string{r.UE, string(r.BS), string(r.Group), r.Prefix} {
				if dst, err = appendString(dst, s); err != nil {
					return nil, err
				}
			}
			dst = appendI32(dst, r.QoS)
			dst = binary.BigEndian.AppendUint64(dst, uint64(r.Path))
			if dst, err = appendString(dst, r.Owner); err != nil {
				return nil, err
			}
			dst = appendBool(dst, r.Active)
		}
		return dst, nil

	case TypeFeatureReply:
		b, ok := m.Body.(FeatureReply)
		if !ok {
			return nil, wireErrorf("feature-reply body is %T", m.Body)
		}
		return appendFeatureReply(dst, &b)

	case TypePacketIn:
		b, ok := m.Body.(PacketIn)
		if !ok {
			return nil, wireErrorf("packet-in body is %T", m.Body)
		}
		return appendPacketBody(dst, b.InPort, b.Packet, b.Control)

	case TypePacketOut:
		b, ok := m.Body.(PacketOut)
		if !ok {
			return nil, wireErrorf("packet-out body is %T", m.Body)
		}
		return appendPacketBody(dst, b.OutPort, b.Packet, b.Control)

	case TypeNbFabric:
		b, ok := m.Body.(NbFabric)
		if !ok {
			return nil, wireErrorf("nb-fabric body is %T", m.Body)
		}
		return appendFabric(dst, b.Fabric), nil

	default:
		return nil, wireErrorf("cannot encode message type %d", int(m.Type))
	}
}

func appendFlowMod(dst []byte, fm *FlowMod) ([]byte, error) {
	dst = append(dst, byte(fm.Command))
	var err error
	if dst, err = appendRule(dst, &fm.Rule); err != nil {
		return nil, err
	}
	if dst, err = appendString(dst, fm.Owner); err != nil {
		return nil, err
	}
	return appendI32(dst, fm.Version), nil
}

// appendMatch encodes a flow match: in-port, label predicate, UE/IP/prefix
// selectors, QoS. Shared by the rule encoding and the northbound bearer
// delegation body.
func appendMatch(dst []byte, m *dataplane.Match) ([]byte, error) {
	dst = appendI32(dst, m.InPort)
	dst = appendBool(dst, m.HasLabel)
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Label))
	dst = appendBool(dst, m.MatchNoLabel)
	var err error
	for _, s := range []string{m.UE, m.SrcIP, m.DstPrefix} {
		if dst, err = appendString(dst, s); err != nil {
			return nil, err
		}
	}
	return appendI32(dst, m.QoS), nil
}

func appendRule(dst []byte, r *dataplane.Rule) ([]byte, error) {
	dst = appendI32(dst, r.Priority)
	var err error
	if dst, err = appendMatch(dst, &r.Match); err != nil {
		return nil, err
	}
	if dst, err = appendCount(dst, len(r.Actions), "actions"); err != nil {
		return nil, err
	}
	for _, a := range r.Actions {
		dst = append(dst, byte(a.Op))
		dst = appendI32(dst, a.Port)
		dst = binary.BigEndian.AppendUint32(dst, uint32(a.Label))
	}
	dst = appendI32(dst, r.Version)
	if dst, err = appendString(dst, r.Owner); err != nil {
		return nil, err
	}
	return appendF64(dst, r.Demand), nil
}

func appendFeatureReply(dst []byte, b *FeatureReply) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, string(b.Device)); err != nil {
		return nil, err
	}
	dst = appendI32(dst, b.Kind)
	if dst, err = appendCount(dst, len(b.Ports), "ports"); err != nil {
		return nil, err
	}
	for _, p := range b.Ports {
		dst = appendI32(dst, p.ID)
		dst = appendBool(dst, p.Up)
		dst = appendBool(dst, p.External)
		for _, s := range []string{p.ExternalDomain, string(p.Radio), string(p.Underlying.Dev)} {
			if dst, err = appendString(dst, s); err != nil {
				return nil, err
			}
		}
		dst = appendI32(dst, p.Underlying.Port)
	}
	dst = appendFabric(dst, b.Fabric)
	if dst, err = appendCount(dst, len(b.GBSes), "g-bses"); err != nil {
		return nil, err
	}
	for _, g := range b.GBSes {
		if dst, err = appendString(dst, string(g.ID)); err != nil {
			return nil, err
		}
		dst = appendI32(dst, g.AttachPort)
		dst = appendBool(dst, g.Border)
		if dst, err = appendCount(dst, len(g.Groups), "bs groups"); err != nil {
			return nil, err
		}
		for _, id := range g.Groups {
			if dst, err = appendString(dst, string(id)); err != nil {
				return nil, err
			}
		}
		dst = appendF64(dst, g.Centroid.X)
		dst = appendF64(dst, g.Centroid.Y)
	}
	if dst, err = appendCount(dst, len(b.GMiddleboxes), "g-middleboxes"); err != nil {
		return nil, err
	}
	for _, g := range b.GMiddleboxes {
		if dst, err = appendString(dst, string(g.ID)); err != nil {
			return nil, err
		}
		dst = appendI32(dst, g.Type)
		dst = appendF64(dst, g.Capacity)
		dst = appendF64(dst, g.Load)
		if dst, err = appendCount(dst, len(g.AttachPorts), "attach ports"); err != nil {
			return nil, err
		}
		for _, p := range g.AttachPorts {
			dst = appendI32(dst, p)
		}
	}
	return dst, nil
}

// appendFabric encodes an optional virtual fabric: presence byte, 4-byte
// pair count, then each pair in VFabric.Pairs order with its metrics.
func appendFabric(dst []byte, v *dataplane.VFabric) []byte {
	dst = appendBool(dst, v != nil)
	if v == nil {
		return dst
	}
	pairs := v.Pairs()
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(pairs)))
	for _, pp := range pairs {
		m, _ := v.Get(pp.A, pp.B)
		dst = appendI32(dst, pp.A)
		dst = appendI32(dst, pp.B)
		dst = binary.BigEndian.AppendUint64(dst, uint64(m.Latency))
		dst = appendI32(dst, m.Hops)
		dst = appendF64(dst, m.Bandwidth)
		dst = appendBool(dst, m.Reachable)
	}
	return dst
}

// appendPacketBody encodes the shared PacketIn/PacketOut layout: port,
// optional data-plane packet, control payload.
func appendPacketBody(dst []byte, port dataplane.PortID, p *dataplane.Packet, control interface{}) ([]byte, error) {
	dst, err := appendPacket(appendI32(dst, port), p)
	if err != nil {
		return nil, err
	}
	switch c := control.(type) {
	case nil:
		return append(dst, controlNil), nil
	case *discovery.Frame:
		if c == nil {
			return nil, wireErrorf("nil %T control payload", c)
		}
		dst = append(dst, controlDiscovery)
		if dst, err = appendCount(dst, len(c.Stack), "discovery stack entries"); err != nil {
			return nil, err
		}
		for _, e := range c.Stack {
			if dst, err = appendStackEntry(dst, e); err != nil {
				return nil, err
			}
		}
		dst = binary.BigEndian.AppendUint64(dst, uint64(c.Meta.Latency))
		dst = appendF64(dst, c.Meta.Bandwidth)
		return appendStackEntry(dst, c.Receive)
	default:
		return nil, wireErrorf("unsupported control payload %T", control)
	}
}

// appendPacket encodes an optional data-plane packet: presence byte, the
// classification fields, then the label stack (bottom first), trace and
// visited middleboxes as counted sequences, and the observed stack depth.
func appendPacket(dst []byte, p *dataplane.Packet) ([]byte, error) {
	dst = appendBool(dst, p != nil)
	if p == nil {
		return dst, nil
	}
	var err error
	for _, s := range []string{p.UE, p.SrcIP, p.DstPrefix} {
		if dst, err = appendString(dst, s); err != nil {
			return nil, err
		}
	}
	dst = appendI32(dst, p.QoS)
	labels := p.Labels()
	if dst, err = appendCount(dst, len(labels), "labels"); err != nil {
		return nil, err
	}
	for _, l := range labels {
		dst = binary.BigEndian.AppendUint32(dst, uint32(l))
	}
	if dst, err = appendCount(dst, len(p.Trace), "trace hops"); err != nil {
		return nil, err
	}
	for _, h := range p.Trace {
		if dst, err = appendString(dst, string(h.Dev)); err != nil {
			return nil, err
		}
		dst = appendI32(dst, h.InPort)
		dst = appendI32(dst, h.OutPort)
		dst = appendI32(dst, h.LabelDepth)
		dst = binary.BigEndian.AppendUint32(dst, uint32(h.TopLabel))
	}
	if dst, err = appendCount(dst, len(p.MiddleboxesVisited), "middleboxes"); err != nil {
		return nil, err
	}
	for _, t := range p.MiddleboxesVisited {
		dst = appendI32(dst, t)
	}
	return appendI32(dst, p.MaxLabelDepth), nil
}

func appendStackEntry(dst []byte, e discovery.StackEntry) ([]byte, error) {
	var err error
	if dst, err = appendString(dst, e.Controller); err != nil {
		return nil, err
	}
	if dst, err = appendString(dst, string(e.Device)); err != nil {
		return nil, err
	}
	return appendI32(dst, e.Port), nil
}

// appendCount writes a 2-byte element count, the prefix of every counted
// sequence except fabric pairs and UE rows (4 bytes).
func appendCount(dst []byte, n int, what string) ([]byte, error) {
	if n > maxWireString {
		return nil, wireErrorf("%d %s exceed limit", n, what)
	}
	return binary.BigEndian.AppendUint16(dst, uint16(n)), nil
}

func appendI32[T ~int](dst []byte, v T) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(int32(v)))
}

func appendF64(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > maxWireString {
		return nil, wireErrorf("string of %d bytes exceeds limit", len(s))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

func appendLongString(dst []byte, s string) ([]byte, error) {
	if len(s) > MaxAssembledSize {
		return nil, wireErrorf("payload of %d bytes exceeds limit", len(s))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...), nil
}

// frameReader is a bounds-checked cursor over one frame payload with a
// sticky error: the first short read latches errTruncated and drops the
// buffer, so every read after that is short too and returns the zero
// value. Decoders therefore read field after field unconditionally and
// report fr.err once — the truncation check lives in the reader, not at
// each call site — which is what lets DecodeFrame run over
// fuzzer-generated garbage safely.
type frameReader struct {
	b   []byte
	off int
	err error
}

// fail latches err unless an earlier error is already recorded, and ends
// all further reading.
func (fr *frameReader) fail(err error) {
	if fr.err == nil {
		fr.err = err
	}
	fr.b, fr.off = nil, 0
}

// take returns the next n bytes, or nil (and fails the reader) when fewer
// remain.
func (fr *frameReader) take(n int) []byte {
	if n < 0 || len(fr.b)-fr.off < n {
		fr.fail(errTruncated)
		return nil
	}
	out := fr.b[fr.off : fr.off+n]
	fr.off += n
	return out
}

func (fr *frameReader) u8() byte {
	if b := fr.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (fr *frameReader) u16() uint16 {
	if b := fr.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (fr *frameReader) u32() uint32 {
	if b := fr.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (fr *frameReader) u64() uint64 {
	if b := fr.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (fr *frameReader) i32() int { return int(int32(fr.u32())) }

func (fr *frameReader) f64() float64 { return math.Float64frombits(fr.u64()) }

func (fr *frameReader) duration() time.Duration { return time.Duration(fr.u64()) }

func (fr *frameReader) boolean() bool { return fr.u8() != 0 }

func (fr *frameReader) str() string { return string(fr.take(int(fr.u16()))) }

func (fr *frameReader) longStr() string {
	n := fr.u32()
	if n > MaxAssembledSize {
		fr.fail(errTruncated)
	}
	return string(fr.take(int(n)))
}

// readSeq decodes a counted sequence of n elements. A hostile count
// cannot drive allocation: the preallocation is capped and the loop stops
// at the first element the payload is too short for, so memory stays
// proportional to the bytes actually present. Zero elements decode to nil.
func readSeq[T any](fr *frameReader, n uint32, elem func(*frameReader, *T)) []T {
	if n == 0 {
		return nil
	}
	out := make([]T, 0, min(n, 1024))
	for i := uint32(0); i < n && fr.err == nil; i++ {
		var zero T
		out = append(out, zero)
		elem(fr, &out[len(out)-1])
	}
	return out
}

var errTruncated = &wireError{msg: "truncated frame"}

// DecodeFrame parses one frame payload (the bytes after the 4-byte length
// prefix) into a Msg. It never panics on malformed input: truncated,
// oversized, or trailing-garbage frames return an error.
func DecodeFrame(payload []byte) (Msg, error) {
	if len(payload) > MaxAssembledSize {
		return Msg{}, wireErrorf("frame payload %d exceeds limit %d", len(payload), MaxAssembledSize)
	}
	fr := &frameReader{b: payload}
	if ver := fr.u8(); fr.err == nil && ver != WireVersion {
		return Msg{}, wireErrorf("unsupported wire version %d (want %d)", ver, WireVersion)
	}
	m := Msg{Type: MsgType(fr.u8()), Xid: fr.u32(), Datapath: dataplane.DeviceID(fr.str())}
	if fr.err != nil {
		return Msg{}, fr.err
	}
	if err := decodeBody(fr, &m); err != nil {
		return Msg{}, err
	}
	if fr.off != len(fr.b) {
		return Msg{}, wireErrorf("%d trailing bytes after %s body", len(fr.b)-fr.off, m.Type)
	}
	return m, nil
}

func decodeBody(fr *frameReader, m *Msg) error {
	switch m.Type {
	case TypeHello:
		m.Body = Hello{Sender: fr.str(), Version: fr.i32()}

	case TypeEchoRequest, TypeEchoReply:
		m.Body = Echo{Payload: fr.longStr()}

	case TypeFeatureRequest:
		m.Body = FeatureRequest{}

	case TypeBarrierRequest, TypeBarrierReply:
		m.Body = Barrier{}

	case TypeFlowMod:
		var b FlowMod
		decodeFlowMod(fr, &b)
		m.Body = b

	case TypeFlowModBatch:
		m.Body = FlowModBatch{Mods: readSeq(fr, uint32(fr.u16()), decodeFlowMod)}

	case TypePortStatus:
		m.Body = PortStatus{Port: dataplane.PortID(fr.i32()), Up: fr.boolean()}

	case TypeRoleRequest:
		m.Body = RoleRequest{Controller: fr.str(), Role: Role(fr.u8())}

	case TypeRoleReply:
		m.Body = RoleReply{Controller: fr.str(), Role: Role(fr.u8())}

	case TypeError:
		m.Body = Error{Code: fr.i32(), Message: fr.str()}

	case TypeFrag:
		b := Frag{Last: fr.boolean()}
		n := fr.u32()
		if n > MaxFrameSize {
			fr.fail(errTruncated)
		}
		// The payload slice aliases the receive scratch buffer; fragments
		// outlive the frame they arrived in, so copy.
		b.Data = append([]byte(nil), fr.take(int(n))...)
		m.Body = b

	case TypeNbBearer:
		b := NbBearer{
			From: dataplane.PortID(fr.i32()), Prefix: fr.str(), Objective: fr.i32(),
			MaxHops: fr.i32(), MaxLatency: fr.duration(), MinBandwidth: fr.f64(),
			MaxTotalHops: fr.i32(), MaxTotalRTT: fr.duration(),
		}
		decodeMatch(fr, &b.Match)
		b.Demand = fr.f64()
		m.Body = b

	case TypeNbPathReply:
		m.Body = NbPathReply{Path: int64(fr.u64()), Transfer: int64(fr.u64()), Owner: fr.str(), Err: fr.str()}

	case TypeNbHandover:
		m.Body = NbHandover{
			UE: fr.str(), SrcGBS: dataplane.DeviceID(fr.str()), SrcBS: dataplane.DeviceID(fr.str()),
			DstGBS: dataplane.DeviceID(fr.str()), DstBS: dataplane.DeviceID(fr.str()),
			Prefix: fr.str(), QoS: fr.i32(), Objective: fr.i32(),
		}

	case TypeNbTeardown:
		m.Body = NbTeardown{Owner: fr.str(), Path: int64(fr.u64())}

	case TypeNbAck:
		m.Body = NbAck{Err: fr.str()}

	case TypeNbInterdomain:
		m.Body = NbInterdomain{Options: readSeq(fr, uint32(fr.u16()), func(fr *frameReader, o *NbRouteOption) {
			*o = NbRouteOption{Prefix: fr.str(), Egress: fr.str(),
				Port: dataplane.PortID(fr.i32()), Hops: fr.i32(), RTT: fr.duration()}
		})}

	case TypeNbReabstract:
		m.Body = NbReabstract{}

	case TypeNbUEState:
		m.Body = NbUEState{Rows: readSeq(fr, fr.u32(), func(fr *frameReader, r *NbUERow) {
			*r = NbUERow{UE: fr.str(), BS: dataplane.DeviceID(fr.str()), Group: dataplane.DeviceID(fr.str()),
				Prefix: fr.str(), QoS: fr.i32(), Path: int64(fr.u64()), Owner: fr.str(), Active: fr.boolean()}
		})}

	case TypeFeatureReply:
		m.Body = FeatureReply{
			Device: dataplane.DeviceID(fr.str()), Kind: dataplane.DeviceKind(fr.i32()),
			Ports: readSeq(fr, uint32(fr.u16()), func(fr *frameReader, p *PortInfo) {
				*p = PortInfo{ID: dataplane.PortID(fr.i32()), Up: fr.boolean(), External: fr.boolean(),
					ExternalDomain: fr.str(), Radio: dataplane.DeviceID(fr.str()),
					Underlying: dataplane.PortRef{Dev: dataplane.DeviceID(fr.str()), Port: dataplane.PortID(fr.i32())}}
			}),
			Fabric: decodeFabric(fr),
			GBSes: readSeq(fr, uint32(fr.u16()), func(fr *frameReader, g *dataplane.GBSInfo) {
				*g = dataplane.GBSInfo{ID: dataplane.DeviceID(fr.str()), AttachPort: dataplane.PortID(fr.i32()),
					Border: fr.boolean(), Groups: readSeq(fr, uint32(fr.u16()), decodeDeviceID),
					Centroid: dataplane.GeoPoint{X: fr.f64(), Y: fr.f64()}}
			}),
			GMiddleboxes: readSeq(fr, uint32(fr.u16()), func(fr *frameReader, g *dataplane.GMiddleboxInfo) {
				*g = dataplane.GMiddleboxInfo{ID: dataplane.DeviceID(fr.str()),
					Type: dataplane.MiddleboxType(fr.i32()), Capacity: fr.f64(), Load: fr.f64(),
					AttachPorts: readSeq(fr, uint32(fr.u16()), decodePortID)}
			}),
		}

	case TypePacketIn:
		m.Body = PacketIn{InPort: dataplane.PortID(fr.i32()), Packet: decodePacket(fr), Control: decodeControl(fr)}

	case TypePacketOut:
		m.Body = PacketOut{OutPort: dataplane.PortID(fr.i32()), Packet: decodePacket(fr), Control: decodeControl(fr)}

	case TypeNbFabric:
		m.Body = NbFabric{Fabric: decodeFabric(fr)}

	default:
		return wireErrorf("cannot decode message type %d", int(m.Type))
	}
	return fr.err
}

func decodeFlowMod(fr *frameReader, fm *FlowMod) {
	fm.Command = FlowModCommand(fr.u8())
	decodeRule(fr, &fm.Rule)
	fm.Owner = fr.str()
	fm.Version = fr.i32()
}

// decodeMatch is the inverse of appendMatch.
func decodeMatch(fr *frameReader, m *dataplane.Match) {
	m.InPort = dataplane.PortID(fr.i32())
	m.HasLabel = fr.boolean()
	m.Label = dataplane.Label(fr.u32())
	m.MatchNoLabel = fr.boolean()
	m.UE, m.SrcIP, m.DstPrefix = fr.str(), fr.str(), fr.str()
	m.QoS = fr.i32()
}

func decodeRule(fr *frameReader, r *dataplane.Rule) {
	r.Priority = fr.i32()
	decodeMatch(fr, &r.Match)
	r.Actions = readSeq(fr, uint32(fr.u16()), func(fr *frameReader, a *dataplane.Action) {
		*a = dataplane.Action{Op: dataplane.ActionOp(fr.u8()), Port: dataplane.PortID(fr.i32()),
			Label: dataplane.Label(fr.u32())}
	})
	r.Version = fr.i32()
	r.Owner = fr.str()
	r.Demand = fr.f64()
}

func decodeDeviceID(fr *frameReader, id *dataplane.DeviceID) { *id = dataplane.DeviceID(fr.str()) }

func decodePortID(fr *frameReader, p *dataplane.PortID) { *p = dataplane.PortID(fr.i32()) }

// decodeFabric is the inverse of appendFabric. Each pair needs 29 payload
// bytes, so the map grows with the input, never with the count.
func decodeFabric(fr *frameReader) *dataplane.VFabric {
	if !fr.boolean() {
		return nil
	}
	v := dataplane.NewVFabric()
	for n := fr.u32(); n > 0 && fr.err == nil; n-- {
		a, b := dataplane.PortID(fr.i32()), dataplane.PortID(fr.i32())
		v.Set(a, b, dataplane.PathMetrics{Latency: fr.duration(), Hops: fr.i32(),
			Bandwidth: fr.f64(), Reachable: fr.boolean()})
	}
	return v
}

// decodePacket is the inverse of appendPacket. The label stack is rebuilt
// through PushLabel (four payload bytes per label, so it too grows with
// the input only); the recorded MaxLabelDepth then overrides what the
// pushes observed.
func decodePacket(fr *frameReader) *dataplane.Packet {
	if !fr.boolean() {
		return nil
	}
	p := &dataplane.Packet{UE: fr.str(), SrcIP: fr.str(), DstPrefix: fr.str(), QoS: fr.i32()}
	for n := fr.u16(); n > 0 && fr.err == nil; n-- {
		p.PushLabel(dataplane.Label(fr.u32()))
	}
	p.Trace = readSeq(fr, uint32(fr.u16()), func(fr *frameReader, h *dataplane.Hop) {
		*h = dataplane.Hop{Dev: dataplane.DeviceID(fr.str()), InPort: dataplane.PortID(fr.i32()),
			OutPort: dataplane.PortID(fr.i32()), LabelDepth: fr.i32(), TopLabel: dataplane.Label(fr.u32())}
	})
	p.MiddleboxesVisited = readSeq(fr, uint32(fr.u16()), func(fr *frameReader, t *dataplane.MiddleboxType) {
		*t = dataplane.MiddleboxType(fr.i32())
	})
	p.MaxLabelDepth = fr.i32()
	return p
}

// decodeControl is the inverse of appendPacketBody's control switch.
func decodeControl(fr *frameReader) interface{} {
	switch tag := fr.u8(); tag {
	case controlNil:
		return nil
	case controlDiscovery:
		f := &discovery.Frame{
			Stack: readSeq(fr, uint32(fr.u16()), decodeStackEntry),
			Meta:  discovery.LinkMeta{Latency: fr.duration(), Bandwidth: fr.f64()},
		}
		decodeStackEntry(fr, &f.Receive)
		return f
	default:
		fr.fail(wireErrorf("unknown control payload tag %d", tag))
		return nil
	}
}

func decodeStackEntry(fr *frameReader, e *discovery.StackEntry) {
	*e = discovery.StackEntry{Controller: fr.str(), Device: dataplane.DeviceID(fr.str()),
		Port: dataplane.PortID(fr.i32())}
}
