package southbound

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/testutil/leakcheck"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(4)
	defer a.Close()
	defer b.Close()
	if err := a.Send(Msg{Type: TypeEchoRequest, Xid: 7, Body: Echo{Payload: "hi"}}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeEchoRequest || m.Xid != 7 || m.Body.(Echo).Payload != "hi" {
		t.Fatalf("got %+v", m)
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pipe(0)
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("err = %v, want EOF", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestPipeSendAfterClose(t *testing.T) {
	a, b := Pipe(1)
	b.Close()
	if err := a.Send(Msg{Type: TypeHello}); err == nil {
		// buffered message may be accepted before close observed; second
		// send must fail
		if err2 := a.Send(Msg{Type: TypeHello}); err2 == nil {
			t.Fatal("send after close should eventually fail")
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal("close must be idempotent across both ends")
	}
}

func TestPipeDrainAfterClose(t *testing.T) {
	a, b := Pipe(4)
	a.Send(Msg{Type: TypeEchoRequest})
	a.Close()
	// message sent before close should still be receivable
	if m, err := b.Recv(); err != nil || m.Type != TypeEchoRequest {
		t.Fatalf("drain failed: %v %v", m, err)
	}
}

func TestPipeDrainsFullBufferAfterClose(t *testing.T) {
	leakcheck.Check(t)
	// Every message buffered before close must be delivered, in order,
	// before Recv reports EOF — not just one racing message.
	a, b := Pipe(8)
	const n = 5
	for i := 0; i < n; i++ {
		if err := a.Send(Msg{Type: TypeEchoRequest, Xid: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	for i := 0; i < n; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("message %d lost after close: %v", i, err)
		}
		if m.Xid != uint32(i+1) {
			t.Fatalf("message %d reordered: xid=%d", i, m.Xid)
		}
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Fatalf("err after drain = %v, want EOF", err)
	}
}

func TestHandshake(t *testing.T) {
	a, b := Pipe(2)
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var peer string
	var acceptErr error
	go func() {
		defer wg.Done()
		peer, acceptErr = Accept(b, "switch-1")
	}()
	if err := Handshake(a, "ctrl-1"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if acceptErr != nil {
		t.Fatal(acceptErr)
	}
	if peer != "ctrl-1" {
		t.Fatalf("peer = %q", peer)
	}
}

func TestHandshakeVersionMismatch(t *testing.T) {
	a, b := Pipe(2)
	defer a.Close()
	defer b.Close()
	go func() {
		a.Send(Msg{Type: TypeHello, Body: Hello{Sender: "old", Version: 99}})
	}()
	if _, err := Accept(b, "sw"); err == nil {
		t.Fatal("version mismatch should fail")
	}
}

func TestHandshakeWrongFirstMessage(t *testing.T) {
	a, b := Pipe(2)
	defer a.Close()
	defer b.Close()
	go a.Send(Msg{Type: TypeEchoRequest})
	if _, err := Accept(b, "sw"); err == nil {
		t.Fatal("non-hello first message should fail")
	}
}

func TestBinConnEOFOnClose(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errc := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		c := NewBinConn(nc)
		defer c.Close()
		_, err = c.Recv()
		errc <- err
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewBinConn(nc)
	c.Close()
	if err := <-errc; err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

// TestPacketLabelsOverBinConn: the unexported label stack survives the
// wire, and the decoded packet's stack is live (pop/push work on it).
func TestPacketLabelsOverBinConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan Msg, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(got)
			return
		}
		c := NewBinConn(nc)
		defer c.Close()
		m, _ := c.Recv()
		got <- m
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewBinConn(nc)
	defer c.Close()
	pkt := &dataplane.Packet{UE: "ue9", DstPrefix: "p1", QoS: 5}
	pkt.PushLabel(77)
	if err := c.Send(Msg{Type: TypePacketIn, Body: PacketIn{InPort: 3, Packet: pkt}}); err != nil {
		t.Fatal(err)
	}
	m := <-got
	pi, ok := m.Body.(PacketIn)
	if !ok || pi.Packet == nil || pi.Packet.UE != "ue9" {
		t.Fatalf("packet mangled: %+v", m)
	}
	if l, ok := pi.Packet.PopLabel(); !ok || l != 77 || pi.Packet.LabelDepth() != 0 {
		t.Fatalf("label lost over the wire: %v %v", l, ok)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	types := []MsgType{TypeHello, TypeEchoRequest, TypeEchoReply, TypeFeatureRequest,
		TypeFeatureReply, TypePacketIn, TypePacketOut, TypeFlowMod, TypePortStatus,
		TypeRoleRequest, TypeRoleReply, TypeBarrierRequest, TypeBarrierReply, TypeError}
	seen := map[string]bool{}
	for _, ty := range types {
		s := ty.String()
		if seen[s] {
			t.Fatalf("duplicate name %q", s)
		}
		seen[s] = true
	}
	if MsgType(99).String() != "msgtype(99)" {
		t.Fatal("unknown type string")
	}
}

func TestRoleStrings(t *testing.T) {
	if RoleMaster.String() != "master" || RoleEqual.String() != "equal" ||
		RoleSlave.String() != "slave" || RoleNone.String() != "none" {
		t.Fatal("role strings")
	}
}
