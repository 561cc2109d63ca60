package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/southbound"
)

// dialScripted dials a ConnDevice against a hand-scripted device side, so
// tests control exactly which replies are sent and when — including not
// sending them at all.
func dialScripted(t *testing.T) (*ConnDevice, southbound.Conn) {
	t.Helper()
	ctrlEnd, devEnd := southbound.Pipe(64)
	go func() {
		m, err := devEnd.Recv()
		if err != nil || m.Type != southbound.TypeHello {
			return
		}
		_ = devEnd.Send(southbound.Msg{Type: southbound.TypeHello,
			Body: southbound.Hello{Sender: "SX", Version: southbound.ProtocolVersion}})
		m, err = devEnd.Recv()
		if err != nil || m.Type != southbound.TypeFeatureRequest {
			return
		}
		_ = devEnd.Send(southbound.Msg{Type: southbound.TypeFeatureReply, Xid: m.Xid,
			Body: southbound.FeatureReply{Device: "SX", Kind: dataplane.KindSwitch}})
	}()
	dev, err := DialDevice(ctrlEnd, "L1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return dev, devEnd
}

// recvType reads the next device-side message and requires its type.
func recvType(t *testing.T, c southbound.Conn, want southbound.MsgType) southbound.Msg {
	t.Helper()
	type res struct {
		m   southbound.Msg
		err error
	}
	ch := make(chan res, 1)
	go func() {
		m, err := c.Recv()
		ch <- res{m, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("device recv: %v", r.err)
		}
		if r.m.Type != want {
			t.Fatalf("device received %v, want %v", r.m.Type, want)
		}
		return r.m
	case <-time.After(2 * time.Second):
		t.Fatalf("device timed out waiting for %v", want)
	}
	return southbound.Msg{}
}

// TestStaleBarrierReplyDoesNotSatisfyNextFence pins the barrier-ID
// completion protocol: a barrier reply that arrives after its fence timed
// out must be dropped, never credited to the next outstanding fence. The
// old single-channel fence wait matched any barrier reply, so a slow
// device's late ack could "complete" a fence whose modification it never
// covered — silently breaking the §7 version-exact rollback contract.
func TestStaleBarrierReplyDoesNotSatisfyNextFence(t *testing.T) {
	dev, devEnd := dialScripted(t)
	dev.RequestTimeout = 40 * time.Millisecond
	dev.BarrierRetries = 0

	errc := make(chan error, 1)
	go func() { errc <- dev.InstallRules([]dataplane.Rule{{Priority: 1}}) }()
	recvType(t, devEnd, southbound.TypeFlowMod)
	b1 := recvType(t, devEnd, southbound.TypeBarrierRequest)

	// The device swallows the barrier; the fence must time out.
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "fence failed") {
			t.Fatalf("first fence: got %v, want fence-failed timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("first install did not resolve")
	}

	// Second install; its fence gets a fresh barrier xid.
	go func() { errc <- dev.InstallRules([]dataplane.Rule{{Priority: 2}}) }()
	recvType(t, devEnd, southbound.TypeFlowMod)
	b2 := recvType(t, devEnd, southbound.TypeBarrierRequest)
	if b2.Xid == b1.Xid {
		t.Fatalf("fence reused barrier xid %d", b1.Xid)
	}

	// The late reply to the dead fence lands while the second fence is
	// outstanding. It must not complete it: the second fence times out too.
	if err := devEnd.Send(southbound.Msg{Type: southbound.TypeBarrierReply, Xid: b1.Xid,
		Body: southbound.Barrier{}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("stale barrier reply satisfied the next fence")
		}
		if !strings.Contains(err.Error(), "fence failed") {
			t.Fatalf("second fence: got %v, want fence-failed timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second install did not resolve")
	}

	// A reply carrying the fence's current xid still completes it.
	go func() { errc <- dev.InstallRules([]dataplane.Rule{{Priority: 3}}) }()
	recvType(t, devEnd, southbound.TypeFlowMod)
	b3 := recvType(t, devEnd, southbound.TypeBarrierRequest)
	if err := devEnd.Send(southbound.Msg{Type: southbound.TypeBarrierReply, Xid: b3.Xid,
		Body: southbound.Barrier{}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("fresh fence: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("third install did not resolve")
	}
}

// dialAgentDevice wires a real switch agent over an in-memory pipe — the
// minimal end-to-end request path for allocation accounting.
func dialAgentDevice(tb testing.TB) *ConnDevice {
	net := dataplane.NewNetwork()
	net.AddSwitch("S1")
	agent := southbound.NewSwitchAgent(net, net.Switch("S1"))
	ctrlEnd, devEnd := southbound.Pipe(64)
	go agent.Serve(devEnd)
	dev, err := DialDevice(ctrlEnd, "L1")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { dev.Close() })
	return dev
}

// TestSyncRequestAllocsBounded pins the allocation budget of a
// synchronous southbound round trip. The previous implementation armed a
// fresh time.After timer per request and abandoned it still running, so
// every request parked a RequestTimeout-long timer (plus its channel) in
// the runtime — at 10× event rates that is hundreds of thousands of live
// timers. With the pooled, stopped timer the steady-state budget is a
// handful of objects; a re-introduced per-op timer pushes it over the
// bound.
func TestSyncRequestAllocsBounded(t *testing.T) {
	dev := dialAgentDevice(t)
	for i := 0; i < 8; i++ { // warm the timer and frame pools
		if err := dev.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := dev.Barrier(); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 16
	if avg > maxAllocs {
		t.Fatalf("Barrier allocates %.1f objects/op, want <= %d (per-request timer pooling regressed?)", avg, maxAllocs)
	}
}

// BenchmarkConnDeviceBarrier measures the synchronous fence round trip;
// run with -benchmem to watch the per-op allocation count the test above
// pins.
func BenchmarkConnDeviceBarrier(b *testing.B) {
	dev := dialAgentDevice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.Barrier(); err != nil {
			b.Fatal(err)
		}
	}
}
