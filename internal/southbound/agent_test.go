package southbound

import (
	"testing"
	"time"

	"repro/internal/dataplane"
)

// testHarness wires a two-switch network with agents and returns controller
// ends of the connections.
type testHarness struct {
	net    *dataplane.Network
	agents map[dataplane.DeviceID]*SwitchAgent
}

func newHarness(t *testing.T, ids ...dataplane.DeviceID) *testHarness {
	t.Helper()
	h := &testHarness{net: dataplane.NewNetwork(), agents: make(map[dataplane.DeviceID]*SwitchAgent)}
	for _, id := range ids {
		sw := h.net.AddSwitch(id)
		h.agents[id] = NewSwitchAgent(h.net, sw)
	}
	return h
}

// connect dials a controller connection to a switch agent and completes the
// handshake.
func (h *testHarness) connect(t *testing.T, ctrl string, sw dataplane.DeviceID) Conn {
	t.Helper()
	c, d := Pipe(64)
	go h.agents[sw].Serve(d)
	if err := Handshake(c, ctrl); err != nil {
		t.Fatal(err)
	}
	return c
}

func recvType(t *testing.T, c Conn, want MsgType) Msg {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		done := make(chan Msg, 1)
		errc := make(chan error, 1)
		go func() {
			m, err := c.Recv()
			if err != nil {
				errc <- err
				return
			}
			done <- m
		}()
		select {
		case m := <-done:
			if m.Type == want {
				return m
			}
			// skip unrelated events
		case err := <-errc:
			t.Fatalf("recv: %v", err)
		case <-deadline:
			t.Fatalf("timeout waiting for %v", want)
		}
	}
}

func TestAgentEcho(t *testing.T) {
	h := newHarness(t, "SW1")
	c := h.connect(t, "ctrl", "SW1")
	defer c.Close()
	c.Send(Msg{Type: TypeEchoRequest, Xid: 5, Body: Echo{Payload: "ping"}})
	m := recvType(t, c, TypeEchoReply)
	if m.Xid != 5 || m.Body.(Echo).Payload != "ping" {
		t.Fatalf("echo mangled: %+v", m)
	}
}

func TestAgentFeatures(t *testing.T) {
	h := newHarness(t, "SW1", "SW2")
	h.net.Connect("SW1", "SW2", time.Millisecond, 100)
	h.net.AddEgress("E1", "SW1", "isp")
	c := h.connect(t, "ctrl", "SW1")
	defer c.Close()
	c.Send(Msg{Type: TypeFeatureRequest, Xid: 1, Body: FeatureRequest{}})
	m := recvType(t, c, TypeFeatureReply)
	fr := m.Body.(FeatureReply)
	if fr.Device != "SW1" || fr.Kind != dataplane.KindSwitch {
		t.Fatalf("features: %+v", fr)
	}
	if len(fr.Ports) != 2 {
		t.Fatalf("ports = %d", len(fr.Ports))
	}
	foundExt := false
	for _, p := range fr.Ports {
		if p.External && p.ExternalDomain == "isp" {
			foundExt = true
		}
	}
	if !foundExt {
		t.Fatal("external port not reported")
	}
}

func TestAgentFlowMod(t *testing.T) {
	h := newHarness(t, "SW1")
	c := h.connect(t, "ctrl", "SW1")
	defer c.Close()
	c.Send(Msg{Type: TypeFlowMod, Body: FlowMod{
		Command: FlowAdd,
		Rule: dataplane.Rule{Priority: 3, Match: dataplane.Match{InPort: dataplane.PortAny, QoS: -1},
			Actions: []dataplane.Action{{Op: dataplane.OpDrop}}, Owner: "ctrl"},
	}})
	// barrier to sequence
	c.Send(Msg{Type: TypeBarrierRequest, Xid: 9, Body: Barrier{}})
	recvType(t, c, TypeBarrierReply)
	if h.net.Switch("SW1").Table.Len() != 1 {
		t.Fatal("flow not installed")
	}
	c.Send(Msg{Type: TypeFlowMod, Body: FlowMod{Command: FlowDeleteOwner, Owner: "ctrl"}})
	c.Send(Msg{Type: TypeBarrierRequest, Body: Barrier{}})
	recvType(t, c, TypeBarrierReply)
	if h.net.Switch("SW1").Table.Len() != 0 {
		t.Fatal("flow not removed")
	}
}

func TestSlaveCannotModify(t *testing.T) {
	h := newHarness(t, "SW1")
	c := h.connect(t, "standby", "SW1")
	defer c.Close()
	c.Send(Msg{Type: TypeRoleRequest, Xid: 2, Body: RoleRequest{Controller: "standby", Role: RoleSlave}})
	m := recvType(t, c, TypeRoleReply)
	if m.Body.(RoleReply).Role != RoleSlave {
		t.Fatalf("role reply: %+v", m)
	}
	c.Send(Msg{Type: TypeFlowMod, Body: FlowMod{Command: FlowAdd,
		Rule: dataplane.Rule{Priority: 1, Match: dataplane.Match{InPort: dataplane.PortAny, QoS: -1}}}})
	em := recvType(t, c, TypeError)
	if em.Body.(Error).Code != ErrCodePermission {
		t.Fatalf("expected permission error, got %+v", em)
	}
	if h.net.Switch("SW1").Table.Len() != 0 {
		t.Fatal("slave installed a rule")
	}
}

func TestEventsDuplicatedToAllControllers(t *testing.T) {
	h := newHarness(t, "SW1")
	master := h.connect(t, "master", "SW1")
	standby := h.connect(t, "standby", "SW1")
	defer master.Close()
	defer standby.Close()

	// punt a packet via table miss
	h.net.Inject("SW1", dataplane.PortAny, &dataplane.Packet{UE: "u1"})

	for _, c := range []Conn{master, standby} {
		m := recvType(t, c, TypePacketIn)
		pi := m.Body.(PacketIn)
		if pi.Packet == nil || pi.Packet.UE != "u1" {
			t.Fatalf("packet-in mangled: %+v", pi)
		}
	}
}

func TestPacketOutControlCrossesLink(t *testing.T) {
	h := newHarness(t, "SW1", "SW2")
	h.net.Connect("SW1", "SW2", time.Millisecond, 100)
	c1 := h.connect(t, "ctrl", "SW1")
	c2 := h.connect(t, "ctrl", "SW2")
	defer c1.Close()
	defer c2.Close()

	c1.Send(Msg{Type: TypePacketOut, Body: PacketOut{OutPort: 1, Control: "discovery-frame"}})
	m := recvType(t, c2, TypePacketIn)
	pi := m.Body.(PacketIn)
	if pi.Control != "discovery-frame" {
		t.Fatalf("control payload mangled: %+v", pi)
	}
	if pi.InPort != 1 {
		t.Fatalf("in-port = %d", pi.InPort)
	}
}

func TestPacketOutOnDownLinkDropped(t *testing.T) {
	h := newHarness(t, "SW1", "SW2")
	l, _ := h.net.Connect("SW1", "SW2", time.Millisecond, 100)
	c1 := h.connect(t, "ctrl", "SW1")
	c2 := h.connect(t, "ctrl", "SW2")
	defer c1.Close()
	defer c2.Close()
	l.SetUp(false)
	c1.Send(Msg{Type: TypePacketOut, Body: PacketOut{OutPort: 1, Control: "x"}})
	// run an echo round-trip to ensure the packet-out was processed
	c1.Send(Msg{Type: TypeEchoRequest, Body: Echo{}})
	recvType(t, c1, TypeEchoReply)
	// SW2 must not have received anything: verify with a non-blocking probe
	probe := make(chan Msg, 1)
	go func() {
		m, err := c2.Recv()
		if err == nil {
			probe <- m
		}
	}()
	select {
	case m := <-probe:
		t.Fatalf("unexpected delivery over down link: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestPacketOutUnknownPort(t *testing.T) {
	h := newHarness(t, "SW1")
	c := h.connect(t, "ctrl", "SW1")
	defer c.Close()
	c.Send(Msg{Type: TypePacketOut, Xid: 3, Body: PacketOut{OutPort: 42, Control: "x"}})
	m := recvType(t, c, TypeError)
	if m.Body.(Error).Code != ErrCodeUnknownPort {
		t.Fatalf("error = %+v", m)
	}
}

func TestPortStatusBroadcast(t *testing.T) {
	h := newHarness(t, "SW1", "SW2")
	l, _ := h.net.Connect("SW1", "SW2", time.Millisecond, 100)
	c := h.connect(t, "ctrl", "SW1")
	defer c.Close()
	h.net.SetLinkState(l, false)
	m := recvType(t, c, TypePortStatus)
	ps := m.Body.(PortStatus)
	if ps.Up || ps.Port != 1 {
		t.Fatalf("port status: %+v", ps)
	}
}

func TestRolesSnapshot(t *testing.T) {
	h := newHarness(t, "SW1")
	c := h.connect(t, "m", "SW1")
	defer c.Close()
	c.Send(Msg{Type: TypeEchoRequest, Body: Echo{}})
	recvType(t, c, TypeEchoReply)
	roles := h.agents["SW1"].Roles()
	if roles["m"] != RoleMaster {
		t.Fatalf("roles = %v", roles)
	}
}
