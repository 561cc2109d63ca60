package core

import (
	"fmt"
	stdnet "net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/reca"
	"repro/internal/routing"
	"repro/internal/southbound"
)

// countingConn wraps a Conn and counts controller→device messages by type,
// so tests can meter southbound round trips directly at the wire.
type countingConn struct {
	southbound.Conn
	mu   sync.Mutex
	sent map[southbound.MsgType]int
}

func newCountingConn(inner southbound.Conn) *countingConn {
	return &countingConn{Conn: inner, sent: make(map[southbound.MsgType]int)}
}

func (c *countingConn) Send(m southbound.Msg) error {
	c.mu.Lock()
	c.sent[m.Type]++
	c.mu.Unlock()
	return c.Conn.Send(m)
}

func (c *countingConn) count(t southbound.MsgType) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent[t]
}

// dialCounted wires a real agent for sw over an in-process pipe and dials
// it through a counting wrapper.
func dialCounted(t *testing.T, net *dataplane.Network, sw dataplane.DeviceID) (*ConnDevice, *countingConn) {
	t.Helper()
	agent := southbound.NewSwitchAgent(net, net.Switch(sw))
	a, b := southbound.Pipe(64)
	cc := newCountingConn(a)
	go agent.Serve(b)
	dev, err := DialDevice(cc, "L1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return dev, cc
}

// TestBatchRoundTripReduction is the acceptance check for the batched
// southbound: installing N rules on one device must cost one barrier round
// trip instead of N (≥ 2× fewer synchronous round trips per operation).
func TestBatchRoundTripReduction(t *testing.T) {
	net := dataplane.NewNetwork()
	net.AddSwitch("S1")
	net.AddSwitch("S2")
	if _, err := net.Connect("S1", "S2", time.Millisecond, 1000); err != nil {
		t.Fatal(err)
	}

	mkRules := func(n int) []dataplane.Rule {
		rules := make([]dataplane.Rule, n)
		for i := range rules {
			rules[i] = dataplane.Rule{
				Priority: 10 + i,
				Match:    dataplane.Match{InPort: dataplane.PortAny, UE: fmt.Sprintf("u%d", i), QoS: -1},
				Actions:  []dataplane.Action{dataplane.Output(1)},
				Owner:    "t", Version: 1,
			}
		}
		return rules
	}

	batched, bcc := dialCounted(t, net, "S1")
	if err := batched.InstallRules(mkRules(4)); err != nil {
		t.Fatal(err)
	}
	if got := net.Switch("S1").Table.Len(); got != 4 {
		t.Fatalf("batched install left %d rules, want 4", got)
	}
	if n := bcc.count(southbound.TypeFlowModBatch); n != 1 {
		t.Fatalf("batched install sent %d batch messages, want 1", n)
	}
	batchedBarriers := bcc.count(southbound.TypeBarrierRequest)
	if batchedBarriers != 1 {
		t.Fatalf("batched install used %d barriers, want 1", batchedBarriers)
	}

	// Reference: one FlowMod+barrier round trip per rule.
	perRule, pcc := dialCounted(t, net, "S2")
	for _, r := range mkRules(4) {
		if err := perRule.InstallRules([]dataplane.Rule{r}); err != nil {
			t.Fatal(err)
		}
	}
	perRuleBarriers := pcc.count(southbound.TypeBarrierRequest)
	if perRuleBarriers != 4 {
		t.Fatalf("per-rule install used %d barriers, want 4", perRuleBarriers)
	}
	if perRuleBarriers < 2*batchedBarriers {
		t.Fatalf("round-trip reduction %d→%d is below 2×", perRuleBarriers, batchedBarriers)
	}
}

// msgRecorder collects the messages a scripted device side received.
type msgRecorder struct {
	mu   sync.Mutex
	msgs []southbound.Msg
}

func (r *msgRecorder) add(m southbound.Msg) {
	r.mu.Lock()
	r.msgs = append(r.msgs, m)
	r.mu.Unlock()
}

func (r *msgRecorder) snapshot() []southbound.Msg {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]southbound.Msg(nil), r.msgs...)
}

// TestBarrierTimeoutRetryRollbackOrdering pins the fence protocol: a device
// that stops answering barriers must see, in order, the pipelined batch,
// BarrierRetries+1 barrier attempts, and then the version-exact rollback
// delete (itself fenced with the same bounded retry) — and the flush must
// report the fence failure.
func TestBarrierTimeoutRetryRollbackOrdering(t *testing.T) {
	a, b := southbound.Pipe(64)
	rec := &msgRecorder{}
	go func() {
		if _, err := southbound.Accept(b, "SX"); err != nil {
			return
		}
		for {
			m, err := b.Recv()
			if err != nil {
				return
			}
			if m.Type == southbound.TypeFeatureRequest {
				_ = b.Send(southbound.Msg{Type: southbound.TypeFeatureReply, Xid: m.Xid, Datapath: "SX",
					Body: southbound.FeatureReply{Device: "SX", Kind: dataplane.KindSwitch}})
				continue
			}
			rec.add(m) // swallow: barriers are never answered
		}
	}()

	dev, err := DialDevice(a, "L1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	dev.RequestTimeout = 20 * time.Millisecond
	dev.BarrierRetries = 2

	ctrl := NewController("L1", 1, 0)
	ctrl.AttachDevice(dev)

	batch := newRuleBatch()
	for i := 0; i < 2; i++ {
		batch.add("SX", dataplane.Rule{
			Priority: 10 + i,
			Match:    dataplane.Match{InPort: dataplane.PortAny, UE: fmt.Sprintf("u%d", i), QoS: -1},
			Actions:  []dataplane.Action{dataplane.Output(1)},
		})
	}
	err = ctrl.flushBatch(batch, "own", 7)
	if err == nil {
		t.Fatal("flush against a dead fence must fail")
	}
	if !strings.Contains(err.Error(), "fence failed after 3 attempts") {
		t.Fatalf("error does not report the bounded retry: %v", err)
	}

	// batch, 3 barrier attempts, rollback delete, 3 more barrier attempts.
	var msgs []southbound.Msg
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if msgs = rec.snapshot(); len(msgs) >= 8 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := []southbound.MsgType{
		southbound.TypeFlowModBatch,
		southbound.TypeBarrierRequest, southbound.TypeBarrierRequest, southbound.TypeBarrierRequest,
		southbound.TypeFlowMod,
		southbound.TypeBarrierRequest, southbound.TypeBarrierRequest, southbound.TypeBarrierRequest,
	}
	if len(msgs) != len(want) {
		t.Fatalf("device saw %d messages, want %d: %v", len(msgs), len(want), msgs)
	}
	for i, m := range msgs {
		if m.Type != want[i] {
			t.Fatalf("message %d = %v, want %v (full: %v)", i, m.Type, want[i], msgs)
		}
	}
	fm, ok := msgs[4].Body.(southbound.FlowMod)
	if !ok || fm.Command != southbound.FlowDeleteOwnerVersion || fm.Owner != "own" || fm.Version != 7 {
		t.Fatalf("rollback mod = %+v, want version-exact delete of own/7", msgs[4].Body)
	}
}

// killerConn forwards traffic until armed, then kills the connection on the
// first flow-programming message — the batch never reaches the device, as
// when a TCP session dies with writes still in flight.
type killerConn struct {
	southbound.Conn
	armed  atomic.Bool
	killed atomic.Bool
}

func (k *killerConn) Send(m southbound.Msg) error {
	if k.killed.Load() {
		return southbound.ErrClosed
	}
	if k.armed.Load() && (m.Type == southbound.TypeFlowModBatch || m.Type == southbound.TypeFlowMod) {
		k.killed.Store(true)
		_ = k.Conn.Close()
		return southbound.ErrClosed
	}
	return k.Conn.Send(m)
}

// TestConnKillMidBatchRollback kills a switch connection mid-batch during a
// multi-device policy-path flush and asserts the chaos invariants directly:
// rollback leaves no orphan rules anywhere, no path record is created, and
// traffic punts cleanly with label depth ≤ 1.
func TestConnKillMidBatchRollback(t *testing.T) {
	net := dataplane.NewNetwork()
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3"} {
		net.AddSwitch(id)
	}
	for _, pair := range [][2]dataplane.DeviceID{{"S1", "S2"}, {"S2", "S3"}} {
		if _, err := net.Connect(pair[0], pair[1], time.Millisecond, 1000); err != nil {
			t.Fatal(err)
		}
	}
	rp, _ := net.AddRadioPort("S1", "gA")
	ep, _ := net.AddEgress("E1", "S3", "isp")

	ctrl := NewController("L1", 1, 0)
	var killer *killerConn
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3"} {
		agent := southbound.NewSwitchAgent(net, net.Switch(id))
		a, b := southbound.Pipe(64)
		var conn southbound.Conn = a
		if id == "S2" {
			killer = &killerConn{Conn: a}
			conn = killer
		}
		go agent.Serve(b)
		dev, err := DialDevice(conn, ctrl.ID)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		ctrl.AttachDevice(dev)
	}
	ctrl.RunDiscovery()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && ctrl.NIB.NumLinks() < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	if ctrl.NIB.NumLinks() < 2 {
		t.Fatalf("discovery found %d links", ctrl.NIB.NumLinks())
	}

	// A two-leg policy route bouncing at S2 gives S2 two rules — a genuine
	// FlowModBatch — while S1 and S3 batch one rule each.
	var wp dataplane.PortRef
	for _, l := range ctrl.NIB.Links() {
		if l.A.Dev == "S2" && l.B.Dev == "S3" {
			wp = l.A
		} else if l.B.Dev == "S2" && l.A.Dev == "S3" {
			wp = l.B
		}
	}
	g := ctrl.Graph()
	leg1, err := g.ShortestPath(dataplane.PortRef{Dev: "S1", Port: rp.ID}, wp, routing.MinHops, routing.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	leg2, err := g.ShortestPath(wp, dataplane.PortRef{Dev: "S3", Port: ep.Port}, routing.MinHops, routing.Constraints{})
	if err != nil {
		t.Fatal(err)
	}

	killer.armed.Store(true)
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	if _, err := ctrl.SetupPolicyPath(match, &PolicyRoute{Legs: []*routing.Path{leg1, leg2}}); err == nil {
		t.Fatal("setup across a killed connection must fail")
	}

	if n := ctrl.NumPaths(); n != 0 {
		t.Fatalf("failed setup left %d active path records", n)
	}
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3"} {
		if n := net.Switch(id).Table.Len(); n != 0 {
			t.Fatalf("orphan rules: %s still holds %d rules after rollback", id, n)
		}
	}
	res, err := net.Inject("S1", rp.ID, &dataplane.Packet{UE: "u1", DstPrefix: "pfx"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != dataplane.DispPunted {
		t.Fatalf("disposition = %v, want punt at a clean table", res.Disposition)
	}
	if res.MaxLabelDepth > 1 {
		t.Fatalf("label depth %d violates the ≤1 invariant", res.MaxLabelDepth)
	}
}

// TestDialDeviceHandshakeBacklog covers the DialDevice bugfix: events that
// race the feature handshake must be buffered and replayed to the
// controller on attach instead of silently dropped.
func TestDialDeviceHandshakeBacklog(t *testing.T) {
	a, b := southbound.Pipe(64)
	go func() {
		if _, err := southbound.Accept(b, "SY"); err != nil {
			return
		}
		m, err := b.Recv() // the feature request
		if err != nil {
			return
		}
		// Two events race the handshake ahead of the reply.
		_ = b.Send(southbound.Msg{Type: southbound.TypePacketIn, Datapath: "SY",
			Body: southbound.PacketIn{InPort: 1, Packet: &dataplane.Packet{UE: "u1"}}})
		_ = b.Send(southbound.Msg{Type: southbound.TypePortStatus, Datapath: "SY",
			Body: southbound.PortStatus{Port: 1, Up: false}})
		_ = b.Send(southbound.Msg{Type: southbound.TypeFeatureReply, Xid: m.Xid, Datapath: "SY",
			Body: southbound.FeatureReply{Device: "SY", Kind: dataplane.KindSwitch}})
		for {
			m, err := b.Recv()
			if err != nil {
				return
			}
			if m.Type == southbound.TypeFeatureRequest {
				_ = b.Send(southbound.Msg{Type: southbound.TypeFeatureReply, Xid: m.Xid, Datapath: "SY",
					Body: southbound.FeatureReply{Device: "SY", Kind: dataplane.KindSwitch}})
			}
		}
	}()

	dev, err := DialDevice(a, "L1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })

	ctrl := NewController("L1", 1, 0)
	ctrl.AttachDevice(dev) // replays the backlog synchronously
	if got := ctrl.StatsSnapshot().PacketIns; got != 1 {
		t.Fatalf("backlogged packet-in not replayed: PacketIns = %d, want 1", got)
	}
}

// benchControlDelay emulates the one-way control-channel latency of a
// WAN-separated switch: agent replies are held back by this much, while
// controller→device writes stay free to pipeline. Loopback TCP is ~10µs
// round trip, which no real SoftMoW deployment sees; without this the
// benchmark measures goroutine overhead, not round trips.
const benchControlDelay = 200 * time.Microsecond

// delayedConn delays outbound messages; used on the agent side so every
// reply (and thus every blocking controller round trip) pays the delay.
type delayedConn struct {
	southbound.Conn
}

func (c delayedConn) Send(m southbound.Msg) error {
	time.Sleep(benchControlDelay)
	return c.Conn.Send(m)
}

// benchConnFixture builds a four-switch chain controlled over real
// binary-framed TCP southbound connections with emulated control-channel
// latency, so bearer setup pays genuine per-message round-trip costs.
func benchConnFixture(b *testing.B) *Controller {
	b.Helper()
	dpn := dataplane.NewNetwork()
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3", "S4"} {
		dpn.AddSwitch(id)
	}
	for _, pair := range [][2]dataplane.DeviceID{{"S1", "S2"}, {"S2", "S3"}, {"S3", "S4"}} {
		if _, err := dpn.Connect(pair[0], pair[1], time.Millisecond, 1000); err != nil {
			b.Fatal(err)
		}
	}
	rp, _ := dpn.AddRadioPort("S1", "gA")
	ep, _ := dpn.AddEgress("E1", "S4", "isp")

	ctrl := NewController("L1", 1, 0)
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3", "S4"} {
		agent := southbound.NewSwitchAgent(dpn, dpn.Switch(id))
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ln.Close() })
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			agent.Serve(delayedConn{Conn: southbound.NewBinConn(nc)})
		}()
		nc, err := stdnet.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		dev, err := DialDevice(southbound.NewBinConn(nc), ctrl.ID)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { dev.Close() })
		ctrl.AttachDevice(dev)
	}
	ctrl.SetConfig(reca.Config{Radios: []reca.RadioAttachment{
		{ID: "gA", Attach: dataplane.PortRef{Dev: "S1", Port: rp.ID}, Border: true}}})
	ctrl.SetRadioIndex(
		map[dataplane.DeviceID]dataplane.DeviceID{"b1": "gA"},
		map[dataplane.DeviceID]dataplane.PortRef{"gA": {Dev: "S1", Port: rp.ID}})
	ctrl.AddInterdomainRoutes([]interdomain.Route{{
		Prefix: "pfx", Egress: "E1", EgressSwitch: "S4",
		Metrics: interdomain.Metrics{Hops: 5, RTT: 10 * time.Millisecond},
	}}, dataplane.PortRef{Dev: "S4", Port: ep.Port})
	ctrl.RunDiscovery()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && ctrl.NIB.NumLinks() < 3 {
		time.Sleep(2 * time.Millisecond)
	}
	if ctrl.NIB.NumLinks() < 3 {
		b.Fatalf("TCP discovery found %d links, want 3", ctrl.NIB.NumLinks())
	}
	return ctrl
}

// BenchmarkBearerSetupConn measures bearer admission over real
// binary-framed TCP southbound sessions: each switch's FlowMods ride
// pipelined behind a single asynchronously-completed barrier, and the
// switches are issued back to back.
func BenchmarkBearerSetupConn(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		ctrl := benchConnFixture(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ue := fmt.Sprintf("u%d", i)
			rec, err := ctrl.HandleBearerRequest(BearerRequest{UE: ue, BS: "b1", Prefix: "pfx"})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := rec.HandledBy.TeardownPath(rec.PathID, nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}
