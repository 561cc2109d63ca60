package core

import (
	"net"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/southbound"
)

// connHarness wires two switches with protocol agents and a controller
// that reaches them over southbound connections, as the paper's leaf
// prototype does over OpenFlow.
type connHarness struct {
	net  *dataplane.Network
	ctrl *Controller
	devs map[dataplane.DeviceID]*ConnDevice
}

func newConnHarness(t *testing.T) *connHarness {
	t.Helper()
	net := dataplane.NewNetwork()
	net.AddSwitch("S1")
	net.AddSwitch("S2")
	if _, err := net.Connect("S1", "S2", 5*time.Millisecond, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddEgress("E1", "S2", "isp"); err != nil {
		t.Fatal(err)
	}
	ctrl := NewController("L1", 1, 0)
	h := &connHarness{net: net, ctrl: ctrl, devs: map[dataplane.DeviceID]*ConnDevice{}}
	for _, id := range []dataplane.DeviceID{"S1", "S2"} {
		agent := southbound.NewSwitchAgent(net, net.Switch(id))
		a, b := southbound.Pipe(64)
		go agent.Serve(b)
		dev, err := DialDevice(a, ctrl.ID)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		if dev.ID() != id {
			t.Fatalf("dialed device id = %s", dev.ID())
		}
		ctrl.AttachDevice(dev)
		h.devs[id] = dev
	}
	return h
}

// waitLinks polls until the controller's NIB holds n links.
func (h *connHarness) waitLinks(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if h.ctrl.NIB.NumLinks() >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("NIB has %d links, want %d", h.ctrl.NIB.NumLinks(), n)
}

func TestConnDeviceFeaturesAndNIB(t *testing.T) {
	h := newConnHarness(t)
	d, ok := h.ctrl.NIB.Device("S2")
	if !ok {
		t.Fatal("S2 not in NIB")
	}
	foundExt := false
	for _, p := range d.Ports {
		if p.External && p.ExternalDomain == "isp" {
			foundExt = true
		}
	}
	if !foundExt {
		t.Fatal("external port not learned over the wire")
	}
}

func TestConnDeviceDiscoveryOverProtocol(t *testing.T) {
	h := newConnHarness(t)
	h.ctrl.RunDiscovery()
	h.waitLinks(t, 1)
	l := h.ctrl.NIB.Links()[0]
	if l.Latency != 5*time.Millisecond {
		t.Fatalf("link meta not carried over the wire: %+v", l)
	}
	if l.Bandwidth != 1000 {
		t.Fatalf("bandwidth meta = %v", l.Bandwidth)
	}
}

func TestConnDeviceFlowModAndPacketIn(t *testing.T) {
	h := newConnHarness(t)
	dev := h.devs["S1"]
	if err := dev.InstallRules([]dataplane.Rule{{
		Priority: 10,
		Match:    dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1},
		Actions:  []dataplane.Action{dataplane.Output(1)},
		Owner:    "t",
	}}); err != nil {
		t.Fatal(err)
	}
	if h.net.Switch("S1").Table.Len() != 1 {
		t.Fatal("rule not installed on the physical switch")
	}

	// An unmatched packet punts; the event arrives at the controller over
	// the connection.
	h.net.Inject("S1", dataplane.PortAny, &dataplane.Packet{UE: "other"})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if h.ctrl.StatsSnapshot().PacketIns > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h.ctrl.StatsSnapshot().PacketIns == 0 {
		t.Fatal("packet-in never reached the controller")
	}

	if err := dev.RemoveRules(southbound.FlowDeleteOwner, "t", 0); err != nil {
		t.Fatal(err)
	}
	if h.net.Switch("S1").Table.Len() != 0 {
		t.Fatal("rule not removed")
	}
}

func TestConnDevicePortStatusEvent(t *testing.T) {
	h := newConnHarness(t)
	h.ctrl.RunDiscovery()
	h.waitLinks(t, 1)
	// Both directions' frames must have arrived before the link fails: a
	// frame still in flight on the other switch's conn would re-mark the
	// link up after the port-status event.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && h.ctrl.StatsSnapshot().LinksDiscovered < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	h.net.SetLinkState(h.net.Links()[0], false)
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		// The record survives, marked down, ready for restoration.
		if h.ctrl.NIB.NumLinks() == 1 && h.ctrl.NIB.NumUpLinks() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("link failure event never marked the NIB link down (links=%d up=%d)",
		h.ctrl.NIB.NumLinks(), h.ctrl.NIB.NumUpLinks())
}

// TestEqualRoleRegionHandover exercises the §5.3.2 control-transfer dance
// over the wire protocol: the source controller grants the target EQUAL
// role (both see all events), then steps down to SLAVE, leaving the target
// as the sole writer.
func TestEqualRoleRegionHandover(t *testing.T) {
	net := dataplane.NewNetwork()
	sw := net.AddSwitch("SX")
	agent := southbound.NewSwitchAgent(net, sw)

	dial := func(name string) *ConnDevice {
		a, b := southbound.Pipe(64)
		go agent.Serve(b)
		dev, err := DialDevice(a, name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		return dev
	}
	src := dial("leaf-src")
	dst := dial("leaf-dst")

	// Step 1: the target connects with equal role — both may modify.
	if role, err := dst.SetRole("leaf-dst", southbound.RoleEqual); err != nil || role != southbound.RoleEqual {
		t.Fatalf("equal role: %v %v", role, err)
	}
	if err := dst.InstallRules([]dataplane.Rule{{Priority: 1, Match: dataplane.Match{InPort: dataplane.PortAny, QoS: -1}, Owner: "dst"}}); err != nil {
		t.Fatalf("equal-role install: %v", err)
	}

	// Step 2: both controllers receive duplicated events.
	roles := agent.Roles()
	if roles["leaf-src"] != southbound.RoleMaster || roles["leaf-dst"] != southbound.RoleEqual {
		t.Fatalf("roles = %v", roles)
	}

	// Step 3: the source steps down; its writes are now refused and the
	// target takes the master role.
	if _, err := src.SetRole("leaf-src", southbound.RoleSlave); err != nil {
		t.Fatal(err)
	}
	if err := src.InstallRules([]dataplane.Rule{{Priority: 1, Match: dataplane.Match{InPort: dataplane.PortAny, QoS: -1}, Owner: "src"}}); err == nil {
		t.Fatal("slave write should be refused")
	}
	if _, err := dst.SetRole("leaf-dst", southbound.RoleMaster); err != nil {
		t.Fatal(err)
	}
	if sw.Table.Len() != 1 {
		t.Fatalf("table has %d rules, want only the target's", sw.Table.Len())
	}
}

func TestConnDeviceOverTCP(t *testing.T) {
	net := dataplane.NewNetwork()
	net.AddSwitch("S1")
	net.AddSwitch("S2")
	net.Connect("S1", "S2", time.Millisecond, 100)
	ctrl := NewController("L1", 1, 0)

	for _, id := range []dataplane.DeviceID{"S1", "S2"} {
		agent := southbound.NewSwitchAgent(net, net.Switch(id))
		ln := newLocalListener(t)
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			agent.Serve(southbound.NewBinConn(nc))
		}()
		nc := dialLocal(t, ln)
		dev, err := DialDevice(southbound.NewBinConn(nc), ctrl.ID)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		ctrl.AttachDevice(dev)
	}
	ctrl.RunDiscovery()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if ctrl.NIB.NumLinks() >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("TCP-backed discovery found %d links", ctrl.NIB.NumLinks())
}

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

func dialLocal(t *testing.T, ln net.Listener) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return nc
}
