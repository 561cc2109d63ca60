package southbound

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/discovery"
	"repro/internal/testutil/leakcheck"
)

// sampleMsgs covers every message type the codec encodes, with
// representative field values (negative ports, wildcards, label stacks,
// multi-rule batches).
func sampleMsgs() []Msg {
	fab := dataplane.NewVFabric()
	fab.Set(1, 2, dataplane.PathMetrics{Hops: 3, Latency: 5 * time.Millisecond, Bandwidth: 1000})
	// The same-device pair keeps its +Inf bandwidth and the unreachable
	// pair its zero metrics bit for bit.
	gfab := dataplane.NewVFabric()
	gfab.Set(1, 1, dataplane.PathMetrics{Bandwidth: math.Inf(1), Reachable: true})
	gfab.Set(1, 2, dataplane.PathMetrics{Hops: 4, Latency: 7 * time.Millisecond, Bandwidth: 812.5, Reachable: true})
	gfab.Set(2, 3, dataplane.PathMetrics{})
	pkt := &dataplane.Packet{UE: "ue0000001", SrcIP: "10.0.0.1", DstPrefix: "pfx1", QoS: 1}
	// A packet mid-flight: two labels on the stack, a deeper stack seen
	// earlier, trace hops and visited middleboxes.
	deep := &dataplane.Packet{UE: "ue0000002", SrcIP: "10.0.0.2", DstPrefix: "pfx2", QoS: 2,
		Trace: []dataplane.Hop{
			{Dev: "A0", InPort: 1, OutPort: 2, LabelDepth: 1, TopLabel: 7},
			{Dev: "A1", InPort: dataplane.PortAny, OutPort: 3, LabelDepth: 2, TopLabel: 8},
		},
		MiddleboxesVisited: []dataplane.MiddleboxType{1, 0},
	}
	deep.PushLabel(7)
	deep.PushLabel(8)
	deep.MaxLabelDepth = 3
	frame := &discovery.Frame{
		Stack: []discovery.StackEntry{
			{Controller: "L0", Device: "A0", Port: 2},
			{Controller: "M0", Device: "gsw-L0", Port: 5},
			{Controller: "root", Device: "gsw-M0", Port: 9},
		},
		Meta:    discovery.LinkMeta{Latency: 3 * time.Millisecond, Bandwidth: 400},
		Receive: discovery.StackEntry{Controller: "L1", Device: "B0", Port: 1},
	}
	rule := dataplane.Rule{
		Priority: 107,
		Match: dataplane.Match{
			InPort: dataplane.PortAny, HasLabel: true, Label: 42,
			UE: "ue0000001", SrcIP: "10.0.0.1", DstPrefix: "pfx1", QoS: -1,
		},
		Actions: []dataplane.Action{dataplane.Push(9), dataplane.Output(3)},
		Version: 7, Owner: "L0/p12", Demand: 1.5,
	}
	return []Msg{
		{Type: TypeHello, Body: Hello{Sender: "L0", Version: ProtocolVersion}},
		{Type: TypeEchoRequest, Xid: 1, Body: Echo{Payload: "ping"}},
		{Type: TypeEchoReply, Xid: 1, Body: Echo{Payload: "ping"}},
		{Type: TypeFeatureRequest, Xid: 2, Datapath: "A0", Body: FeatureRequest{}},
		{Type: TypeFeatureReply, Xid: 2, Datapath: "A0", Body: FeatureReply{
			Device: "A0", Kind: dataplane.KindSwitch,
			Ports:  []PortInfo{{ID: 1, Up: true}, {ID: 2, Up: false, External: true, ExternalDomain: "isp0"}},
			Fabric: fab,
		}},
		{Type: TypeFeatureReply, Xid: 2, Datapath: "A1", Body: FeatureReply{Device: "A1", Kind: dataplane.KindSwitch}},
		{Type: TypeFeatureReply, Xid: 2, Datapath: "gsw-L0", Body: FeatureReply{
			Device: "gsw-L0", Kind: dataplane.KindGSwitch,
			Ports: []PortInfo{
				{ID: 1, Up: true, Underlying: dataplane.PortRef{Dev: "A0", Port: 4}},
				{ID: 2, Up: true, Radio: "gbs-L0-0", Underlying: dataplane.PortRef{Dev: "A1", Port: 2}},
			},
			Fabric: gfab,
			GBSes: []dataplane.GBSInfo{
				{ID: "gbs-L0-0", AttachPort: 2, Border: true, Groups: []dataplane.DeviceID{"g0", "g1"},
					Centroid: dataplane.GeoPoint{X: 12.5, Y: -3.25}},
				{ID: "gbs-L0-1", AttachPort: 3},
			},
			GMiddleboxes: []dataplane.GMiddleboxInfo{
				{ID: "gmb-L0-fw", Type: 1, Capacity: 40, Load: 12.5, AttachPorts: []dataplane.PortID{1, 2}},
			},
		}},
		{Type: TypePacketIn, Xid: 3, Datapath: "A0", Body: PacketIn{InPort: 1, Packet: pkt}},
		{Type: TypePacketIn, Xid: 3, Datapath: "A1", Body: PacketIn{InPort: 3, Packet: deep}},
		{Type: TypePacketIn, Xid: 3, Datapath: "gsw-L0", Body: PacketIn{InPort: 5, Control: frame}},
		{Type: TypePacketOut, Xid: 4, Datapath: "A0", Body: PacketOut{OutPort: 2, Packet: pkt}},
		{Type: TypePacketOut, Xid: 4, Datapath: "A0", Body: PacketOut{OutPort: 2, Control: frame}},
		{Type: TypeFlowMod, Xid: 5, Datapath: "A0", Body: FlowMod{Command: FlowAdd, Rule: rule}},
		{Type: TypeFlowMod, Xid: 6, Datapath: "A0", Body: FlowMod{
			Command: FlowDeleteOwnerVersion, Owner: "L0/p12", Version: 7,
		}},
		{Type: TypePortStatus, Xid: 0, Datapath: "E0", Body: PortStatus{Port: 4, Up: false}},
		{Type: TypeRoleRequest, Xid: 7, Datapath: "A0", Body: RoleRequest{Controller: "L1", Role: RoleEqual}},
		{Type: TypeRoleReply, Xid: 7, Datapath: "A0", Body: RoleReply{Controller: "L1", Role: RoleEqual}},
		{Type: TypeBarrierRequest, Xid: 8, Datapath: "A0", Body: Barrier{}},
		{Type: TypeBarrierReply, Xid: 8, Datapath: "A0", Body: Barrier{}},
		{Type: TypeError, Xid: 9, Datapath: "A0", Body: Error{Code: ErrCodeBadRequest, Message: "no such port"}},
		{Type: TypeFlowModBatch, Xid: 10, Datapath: "A0", Body: FlowModBatch{Mods: []FlowMod{
			{Command: FlowAdd, Rule: rule},
			{Command: FlowDeleteOwnerBefore, Owner: "L0/p12", Version: 9},
		}}},
		{Type: TypeNbBearer, Xid: 11, Datapath: "gsw-L0", Body: NbBearer{
			From: 3, Prefix: "pfx2", Objective: 1, MaxHops: 8,
			MaxLatency: 20 * time.Millisecond, MinBandwidth: 50,
			MaxTotalHops: 12, MaxTotalRTT: 80 * time.Millisecond,
			Match: rule.Match, Demand: 2.5,
		}},
		{Type: TypeNbPathReply, Xid: 11, Datapath: "gsw-L0", Body: NbPathReply{
			Path: 9001, Transfer: 9002, Owner: "root", Err: "",
		}},
		{Type: TypeNbHandover, Xid: 12, Datapath: "gsw-L0", Body: NbHandover{
			UE: "ue0000001", SrcGBS: "g0", SrcBS: "b0-1",
			DstGBS: "g1", DstBS: "b1-2", Prefix: "pfx1", QoS: 1, Objective: 0,
		}},
		{Type: TypeNbTeardown, Xid: 13, Datapath: "gsw-L0", Body: NbTeardown{Owner: "root", Path: 9001}},
		{Type: TypeNbAck, Xid: 13, Datapath: "gsw-L0", Body: NbAck{Err: "no such path"}},
		{Type: TypeNbInterdomain, Xid: 14, Datapath: "gsw-L0", Body: NbInterdomain{Options: []NbRouteOption{
			{Prefix: "pfx9", Egress: "X0", Port: 4, Hops: 3, RTT: 12 * time.Millisecond},
			{Prefix: "pfx8", Egress: "X1", Port: 2, Hops: 5, RTT: 30 * time.Millisecond},
		}}},
		{Type: TypeNbFabric, Xid: 15, Datapath: "gsw-L0", Body: NbFabric{Fabric: gfab}},
		{Type: TypeNbFabric, Xid: 15, Datapath: "gsw-L0", Body: NbFabric{}},
		{Type: TypeNbReabstract, Xid: 16, Datapath: "gsw-L0", Body: NbReabstract{}},
		{Type: TypeNbUEState, Xid: 17, Datapath: "gsw-L0", Body: NbUEState{Rows: []NbUERow{
			{UE: "ue0000001", BS: "b0-1", Group: "g0", Prefix: "pfx1", QoS: 1, Path: 9001, Owner: "root", Active: true},
			{UE: "ue0000002", BS: "b0-2", Group: "g0", Prefix: "pfx2", QoS: 2, Path: 0, Owner: "", Active: false},
		}}},
	}
}

// frameOnlyMsgs are messages exercised at the frame codec layer but never
// sent through a BinConn as-is: a conn-level Send of TypeFrag would start
// a fragment run on the receiver.
func frameOnlyMsgs() []Msg {
	return []Msg{
		{Type: TypeFrag, Body: Frag{Last: false, Data: []byte{1, 2, 3, 4}}},
		{Type: TypeFrag, Body: Frag{Last: true}},
	}
}

// hostileCountSeeds are frames whose element count claims far more than
// the payload holds: decoding must fail without allocating for the claim.
func hostileCountSeeds() map[string][]byte {
	hdr := func(t MsgType, body ...byte) []byte {
		return append([]byte{WireVersion, byte(t), 0, 0, 0, 1, 0, 0}, body...)
	}
	return map[string][]byte{
		"seed-batch-huge-count":    hdr(TypeFlowModBatch, 0xFF, 0xFF),
		"seed-ue-state-huge-count": hdr(TypeNbUEState, 0xFF, 0xFF, 0xFF, 0xFF),
		// empty device name, kind 0, then the port count
		"seed-feature-huge-count": hdr(TypeFeatureReply, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF),
		// in-port, packet present, three empty strings, qos, label count
		"seed-packet-huge-count": hdr(TypePacketIn, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF),
		// in-port, no packet, discovery tag, stack count
		"seed-frame-stack-huge-count": hdr(TypePacketIn, 0, 0, 0, 1, 0, controlDiscovery, 0xFF, 0xFF),
		// nb-fabric present with a 4-byte pair count
		"seed-fabric-huge-count": hdr(TypeNbFabric, 1, 0xFF, 0xFF, 0xFF, 0xFF),
	}
}

// readSeed returns the payload of a committed single-[]byte corpus file.
func readSeed(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzFrameDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(data), "\n")[1], "[]byte("), ")")
	payload, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(payload)
}

// encodePayload returns the frame payload (length prefix stripped).
func encodePayload(t testing.TB, m Msg) []byte {
	t.Helper()
	buf, err := AppendFrame(nil, &m)
	if err != nil {
		t.Fatalf("AppendFrame(%s): %v", m.Type, err)
	}
	return buf[4:]
}

func TestFrameRoundTripAllTypes(t *testing.T) {
	for _, m := range append(sampleMsgs(), frameOnlyMsgs()...) {
		payload := encodePayload(t, m)
		got, err := DecodeFrame(payload)
		if err != nil {
			t.Fatalf("DecodeFrame(%s): %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s round trip mismatch:\n got %#v\nwant %#v", m.Type, got, m)
		}
	}
}

func TestFrameRejectsTruncation(t *testing.T) {
	for _, m := range sampleMsgs() {
		payload := encodePayload(t, m)
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeFrame(payload[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d decoded without error", m.Type, cut, len(payload))
			}
		}
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	valid := encodePayload(t, Msg{Type: TypeBarrierRequest, Xid: 1, Datapath: "A0", Body: Barrier{}})

	t.Run("wrong wire version", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] = WireVersion + 1
		if _, err := DecodeFrame(bad); err == nil || !strings.Contains(err.Error(), "wire version") {
			t.Fatalf("got %v, want wire version error", err)
		}
	})
	t.Run("unknown message type", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[1] = 0xEE
		if _, err := DecodeFrame(bad); err == nil {
			t.Fatal("unknown message type decoded without error")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		bad := append(append([]byte(nil), valid...), 0xFF)
		if _, err := DecodeFrame(bad); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("got %v, want trailing-bytes error", err)
		}
	})
	t.Run("oversized payload", func(t *testing.T) {
		if _, err := DecodeFrame(make([]byte, MaxAssembledSize+1)); err == nil {
			t.Fatal("oversized payload decoded without error")
		}
	})
	t.Run("v1 gob-nested frame", func(t *testing.T) {
		// A peer still on wire version 1 is refused by version, before any
		// of its gob blob is looked at.
		if _, err := DecodeFrame(readSeed(t, "seed-v1-feature-rep-gob")); err == nil || !strings.Contains(err.Error(), "unsupported wire version 1") {
			t.Fatalf("got %v, want unsupported wire version error", err)
		}
	})
	t.Run("v2 path reply", func(t *testing.T) {
		// A version-2 NbPathReply has no transfer path ID: a peer still on
		// it is refused by version, before its body is read.
		if _, err := DecodeFrame(readSeed(t, "seed-v2-nb-path-rep")); err == nil || !strings.Contains(err.Error(), "unsupported wire version 2") {
			t.Fatalf("got %v, want unsupported wire version error", err)
		}
	})
	t.Run("unknown control tag", func(t *testing.T) {
		bad := encodePayload(t, Msg{Type: TypePacketIn, Body: PacketIn{InPort: 1}})
		bad[len(bad)-1] = 9
		if _, err := DecodeFrame(bad); err == nil || !strings.Contains(err.Error(), "control payload tag") {
			t.Fatalf("got %v, want control tag error", err)
		}
	})
	for name, payload := range hostileCountSeeds() {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeFrame(payload)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("hostile count decoded without error")
			}
			// Allocating for the claim would take megabytes (65535 PortInfo
			// is 4.5 MiB) to gigabytes (2^32 UE rows); the capped
			// preallocation stays far below the smallest of those.
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(payload), got)
			}
		})
	}
	t.Run("oversized encode", func(t *testing.T) {
		big := Msg{Type: TypeEchoRequest, Body: Echo{Payload: strings.Repeat("x", MaxAssembledSize)}}
		if _, err := AppendFrame(nil, &big); err == nil {
			t.Fatal("oversized frame encoded without error")
		}
	})
}

// TestBinConnOverTCP exercises the binary codec end to end over a real
// socket. A control payload outside the closed set fails Send with a wire
// error before any byte is written, so the conn carries every sample
// message afterwards.
func TestBinConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- NewBinConn(nc)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := NewBinConn(nc)
	defer client.Close()
	server := <-accepted
	defer server.Close()

	err = client.Send(Msg{Type: TypePacketOut, Body: PacketOut{OutPort: 1, Control: "not a frame"}})
	var we *wireError
	if !errors.As(err, &we) || !strings.Contains(err.Error(), "unsupported control payload string") {
		t.Fatalf("Send with a string control payload: got %v, want a wire error naming the type", err)
	}
	for _, m := range sampleMsgs() {
		if err := client.Send(m); err != nil {
			t.Fatalf("Send(%s): %v", m.Type, err)
		}
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("Recv(%s): %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s over TCP mismatch:\n got %#v\nwant %#v", m.Type, got, m)
		}
	}
}

// readCountingConn counts Read calls on the wrapped net.Conn — the read(2)
// system calls a socket would see.
type readCountingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCountingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestBinConnReadsPerFrame pins the buffered receive path: a frame costs at
// most one read of the socket (length prefix and payload together), a
// FlowMod and the Barrier written behind it cost one between them, and
// Close still unblocks a reader parked in an empty buffer. net.Pipe makes
// the count exact: one Write is handed to one sufficiently large Read.
func TestBinConnReadsPerFrame(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	sock := &readCountingConn{Conn: far}
	c := NewBinConn(sock)
	defer c.Close()

	mod := Msg{Type: TypeFlowMod, Xid: 1, Body: FlowMod{Command: FlowDeleteOwner, Owner: "L1/p1"}}
	fence := Msg{Type: TypeBarrierRequest, Xid: 2}
	single, err := AppendFrame(nil, &mod)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := AppendFrame(append([]byte(nil), single...), &fence)
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 50
	werr := make(chan error, 1)
	go func() {
		if _, err := near.Write(single); err != nil {
			werr <- err
			return
		}
		for i := 0; i < pairs; i++ {
			if _, err := near.Write(pair); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()

	recv := func(want MsgType) {
		t.Helper()
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != want {
			t.Fatalf("received %s, want %s", m.Type, want)
		}
	}
	recv(TypeFlowMod)
	if got := sock.reads.Load(); got != 1 {
		t.Fatalf("a lone frame cost %d reads, want 1", got)
	}
	for i := 0; i < pairs; i++ {
		recv(TypeFlowMod)
		recv(TypeBarrierRequest)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if got := sock.reads.Load(); got != 1+pairs {
		t.Fatalf("%d frames cost %d reads, want %d (one per write, so at most one per frame)", 1+2*pairs, got, 1+pairs)
	}

	blocked := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		blocked <- err
	}()
	for sock.reads.Load() == 1+pairs { // wait until the reader is parked in Read
		time.Sleep(time.Millisecond)
	}
	c.Close()
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatal("Recv returned a frame after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the reader")
	}
}

// TestBinConnFragmentation pins the oversize round trip: a logical frame
// whose payload exceeds MaxFrameSize crosses a real socket as a run of
// TypeFrag frames and reassembles to the original message; ordinary
// frames interleave cleanly after it.
func TestBinConnFragmentation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *BinConn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- NewBinConn(nc)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := NewBinConn(nc)
	defer client.Close()
	server := <-accepted
	defer server.Close()

	rows := make([]NbUERow, 0, 60_000)
	for i := 0; i < 60_000; i++ {
		rows = append(rows, NbUERow{
			UE: fmt.Sprintf("ue%07d", i), BS: "b0-1", Group: "g0",
			Prefix: "pfx1", QoS: 1, Path: int64(i), Owner: "root", Active: i%2 == 0,
		})
	}
	big := Msg{Type: TypeNbUEState, Xid: 42, Datapath: "gsw-L0", Body: NbUEState{Rows: rows}}
	if enc, err := AppendFrame(nil, &big); err != nil {
		t.Fatal(err)
	} else if len(enc)-4 <= MaxFrameSize {
		t.Fatalf("test payload %d bytes does not exceed MaxFrameSize", len(enc)-4)
	}
	small := Msg{Type: TypeBarrierRequest, Xid: 43, Datapath: "A0", Body: Barrier{}}

	sendErr := make(chan error, 1)
	go func() {
		if err := client.Send(big); err != nil {
			sendErr <- err
			return
		}
		sendErr <- client.Send(small)
	}()
	got, err := server.Recv()
	if err != nil {
		t.Fatalf("Recv oversized: %v", err)
	}
	if !reflect.DeepEqual(got, big) {
		t.Errorf("oversized frame mismatch: got %d rows, want %d",
			len(got.Body.(NbUEState).Rows), len(rows))
	}
	got, err = server.Recv()
	if err != nil {
		t.Fatalf("Recv after fragment run: %v", err)
	}
	if !reflect.DeepEqual(got, small) {
		t.Errorf("frame after fragment run mismatch: %#v", got)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// TestBinConnWriteDeadline pins the satellite-2 fix: a Send blocked on a
// peer that stopped reading fails within the configured write timeout
// instead of wedging forever.
func TestBinConnWriteDeadline(t *testing.T) {
	client, _ := tcpPair(t)
	client.SetWriteTimeout(100 * time.Millisecond)

	big := Msg{Type: TypeEchoRequest, Body: Echo{Payload: strings.Repeat("x", 256<<10)}}
	start := time.Now()
	var sendErr error
	for i := 0; i < 1000; i++ { // fill the socket buffers until a write blocks
		if sendErr = client.Send(big); sendErr != nil {
			break
		}
	}
	elapsed := time.Since(start)
	if sendErr == nil {
		t.Fatal("Send never failed against a peer that stopped reading")
	}
	if !strings.Contains(sendErr.Error(), "deadline") {
		t.Fatalf("Send failed with %v, want a write-deadline error", sendErr)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Send took %v to fail, deadline is 100ms", elapsed)
	}
}

// TestBinConnCloseUnblocksSend pins the other half of satellite 2: with no
// write timeout, Close from another goroutine still unblocks a stalled
// Send promptly.
func TestBinConnCloseUnblocksSend(t *testing.T) {
	leakcheck.Check(t)
	client, _ := tcpPair(t)

	big := Msg{Type: TypeEchoRequest, Body: Echo{Payload: strings.Repeat("x", 256<<10)}}
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < 1000; i++ {
			if err := client.Send(big); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	time.Sleep(200 * time.Millisecond) // let the sender wedge in a blocked write
	client.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Send drained 1000 large frames into a peer that never reads")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked 5s after Close")
	}
}

// A write deadline that fires after part of a frame went out closes the
// conn: the next Send fails with ErrClosed instead of starting a frame
// mid-stream, and the reader, resuming after the torn bytes, decodes no
// frame from them.
func TestBinConnTornWriteCloses(t *testing.T) {
	leakcheck.Check(t)
	a, b := net.Pipe()
	defer b.Close()
	c := NewBinConn(a)
	defer c.Close()
	c.SetWriteTimeout(50 * time.Millisecond)

	// The reader takes the first k bytes of the frame and stops; on the
	// synchronous pipe the rest of the write waits for a read that never
	// comes until the deadline fires.
	const k = 7
	head := make(chan []byte, 1)
	resume := make(chan struct{})
	decoded := make(chan error, 1)
	go func() {
		buf := make([]byte, k)
		if _, err := io.ReadFull(b, buf); err != nil {
			head <- nil
			decoded <- err
			return
		}
		head <- buf
		<-resume
		peer := &BinConn{nc: b, br: bufio.NewReader(io.MultiReader(bytes.NewReader(buf), b))}
		m, err := peer.Recv()
		if err == nil {
			err = fmt.Errorf("decoded a %s frame from torn bytes", m.Type)
			decoded <- err
			return
		}
		decoded <- nil
	}()

	msg := Msg{Type: TypeEchoRequest, Xid: 1, Body: Echo{Payload: strings.Repeat("x", 64)}}
	err := c.Send(msg)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("torn Send returned %v, want a write-deadline error", err)
	}
	if got := <-head; len(got) != k {
		t.Fatalf("reader took %d bytes, want %d", len(got), k)
	}
	msg.Xid = 2
	if err := c.Send(msg); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after a torn write returned %v, want ErrClosed", err)
	}
	close(resume)
	select {
	case err := <-decoded:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader still waiting 5s after the torn write: the conn was left open")
	}
}

// tcpPair returns a BinConn client whose server end accepts the connection
// and then never reads, with cleanup registered.
func tcpPair(t *testing.T) (*BinConn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- nc
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := NewBinConn(nc)
	t.Cleanup(func() { client.Close() })
	server := <-accepted
	t.Cleanup(func() { server.Close() })
	return client, server
}

// FuzzFrameDecode feeds arbitrary payloads to the decoder: it must never
// panic, and anything it accepts must re-encode and re-decode to the same
// bytes. Every body is hand-coded and canonical, so a second encode is
// byte-compared — which also holds for NaN floats where DeepEqual would
// not.
func FuzzFrameDecode(f *testing.F) {
	for _, m := range append(sampleMsgs(), frameOnlyMsgs()...) {
		f.Add(encodePayload(f, m))
	}
	f.Add([]byte{})
	f.Add([]byte{WireVersion})
	for _, payload := range hostileCountSeeds() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeFrame(data)
		if err != nil {
			return
		}
		enc, err := AppendFrame(nil, &m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%#v)", err, m)
		}
		m2, err := DecodeFrame(enc[4:])
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v (%#v)", err, m)
		}
		enc2, err := AppendFrame(nil, &m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not canonical:\n 1st %x\n 2nd %x", enc, enc2)
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzFrameDecode. Run with SOFTMOW_WRITE_CORPUS=1 after a
// wire-format change.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("SOFTMOW_WRITE_CORPUS") == "" {
		t.Skip("corpus generator; set SOFTMOW_WRITE_CORPUS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range append(sampleMsgs(), frameOnlyMsgs()...) {
		write(fmt.Sprintf("seed-%02d-%s", i, m.Type), encodePayload(t, m))
	}
	write("seed-truncated", encodePayload(t, Msg{Type: TypeFlowMod, Xid: 5, Datapath: "A0", Body: FlowMod{}})[:9])
	for name, payload := range hostileCountSeeds() {
		write(name, payload)
	}
}
