package southbound

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dataplane"
	"repro/internal/metrics"
)

// droppedSends counts device-to-controller messages lost on dead or closing
// connections. Sends to a closed peer are expected during teardown (Serve's
// exit prunes the peer), but a growing counter on a healthy deployment
// points at a controller that stopped draining its connection.
var droppedSends = metrics.NewCounter("southbound.dropped_sends")

// LinkMetaFiller lets control payloads (link-discovery frames) learn the
// properties of the physical link they cross, as the paper's leaf
// controllers record in the frame's meta data field (§4.1.2).
type LinkMetaFiller interface {
	FillLinkMeta(latency time.Duration, bandwidthMbps float64)
}

// SwitchAgent is the device-side protocol endpoint for a physical switch.
// It serves any number of controller connections with per-connection roles:
// master and equal controllers may modify state, slaves only observe, and
// data-plane events are duplicated to every attached controller (the
// behaviour §6 relies on for hot-standby failover and §5.3.2 for the
// equal-role region handover).
type SwitchAgent struct {
	Net *dataplane.Network
	Sw  *dataplane.Switch

	mu sync.Mutex
	// conns maps live controller connections to their peers, guarded by mu.
	conns map[Conn]*agentPeer
}

type agentPeer struct {
	name string
	role Role
	conn Conn
}

// NewSwitchAgent wires an agent to a switch and installs itself as the
// switch's controller hook.
func NewSwitchAgent(net *dataplane.Network, sw *dataplane.Switch) *SwitchAgent {
	a := &SwitchAgent{Net: net, Sw: sw, conns: make(map[Conn]*agentPeer)}
	sw.SetHook(a)
	return a
}

// PacketIn implements dataplane.ControllerHook: punted packets are
// duplicated to every attached controller.
func (a *SwitchAgent) PacketIn(sw dataplane.DeviceID, inPort dataplane.PortID, p *dataplane.Packet) {
	a.broadcast(Msg{
		Type:     TypePacketIn,
		Datapath: sw,
		Body:     PacketIn{InPort: inPort, Packet: p},
	})
}

// PortStatus implements dataplane.ControllerHook.
func (a *SwitchAgent) PortStatus(sw dataplane.DeviceID, port dataplane.PortID, up bool) {
	a.broadcast(Msg{
		Type:     TypePortStatus,
		Datapath: sw,
		Body:     PortStatus{Port: port, Up: up},
	})
}

// ControlIn forwards an encapsulated control payload (e.g. a link-discovery
// frame arriving on a port) to all controllers.
func (a *SwitchAgent) ControlIn(inPort dataplane.PortID, control interface{}) {
	a.broadcast(Msg{
		Type:     TypePacketIn,
		Datapath: a.Sw.ID,
		Body:     PacketIn{InPort: inPort, Control: control},
	})
}

// send delivers one message to a peer, counting (rather than silently
// dropping) failures: a send can only fail when the connection is closed or
// its transport died, and the peer is then pruned by Serve's exit.
func (a *SwitchAgent) send(p *agentPeer, m Msg) {
	if err := p.conn.Send(m); err != nil {
		droppedSends.Inc()
	}
}

func (a *SwitchAgent) broadcast(m Msg) {
	a.mu.Lock()
	peers := make([]*agentPeer, 0, len(a.conns))
	for _, p := range a.conns {
		peers = append(peers, p)
	}
	a.mu.Unlock()
	// Deliver in deterministic (controller-name) order, not map order:
	// controllers append these events to replayable logs.
	sort.Slice(peers, func(i, j int) bool { return peers[i].name < peers[j].name })
	for _, p := range peers {
		a.send(p, m)
	}
}

// Roles returns a snapshot of attached controller names and roles.
func (a *SwitchAgent) Roles() map[string]Role {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]Role, len(a.conns))
	for _, p := range a.conns {
		out[p.name] = p.role
	}
	return out
}

// Serve accepts the Hello handshake on c and then processes controller
// requests until the connection closes. It is typically run in its own
// goroutine per controller connection. The initial role is master.
func (a *SwitchAgent) Serve(c Conn) error {
	peerName, err := Accept(c, string(a.Sw.ID))
	if err != nil {
		return err
	}
	peer := &agentPeer{name: peerName, role: RoleMaster, conn: c}
	a.mu.Lock()
	a.conns[c] = peer
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.conns, c)
		a.mu.Unlock()
	}()

	for {
		m, err := c.Recv()
		if err != nil {
			return nil // connection closed
		}
		a.handle(peer, m)
	}
}

func (a *SwitchAgent) handle(peer *agentPeer, m Msg) {
	switch m.Type {
	case TypeEchoRequest:
		body, _ := m.Body.(Echo)
		a.send(peer, Msg{Type: TypeEchoReply, Xid: m.Xid, Datapath: a.Sw.ID, Body: body})

	case TypeFeatureRequest:
		a.send(peer, Msg{Type: TypeFeatureReply, Xid: m.Xid, Datapath: a.Sw.ID, Body: a.features()})

	case TypeFlowMod:
		if peer.role == RoleSlave || peer.role == RoleNone {
			a.send(peer, Msg{Type: TypeError, Xid: m.Xid, Datapath: a.Sw.ID,
				Body: Error{Code: ErrCodePermission, Message: "slave may not modify flows"}})
			return
		}
		fm, ok := m.Body.(FlowMod)
		if !ok {
			a.send(peer, Msg{Type: TypeError, Xid: m.Xid, Datapath: a.Sw.ID,
				Body: Error{Code: ErrCodeBadRequest, Message: "malformed flow-mod"}})
			return
		}
		if err := ApplyFlowMod(a.Net, a.Sw.ID, &fm); err != nil {
			a.send(peer, Msg{Type: TypeError, Xid: m.Xid, Datapath: a.Sw.ID,
				Body: Error{Code: ErrCodeBadRequest, Message: err.Error()}})
		}

	case TypeFlowModBatch:
		if peer.role == RoleSlave || peer.role == RoleNone {
			a.send(peer, Msg{Type: TypeError, Xid: m.Xid, Datapath: a.Sw.ID,
				Body: Error{Code: ErrCodePermission, Message: "slave may not modify flows"}})
			return
		}
		fb, ok := m.Body.(FlowModBatch)
		if !ok {
			a.send(peer, Msg{Type: TypeError, Xid: m.Xid, Datapath: a.Sw.ID,
				Body: Error{Code: ErrCodeBadRequest, Message: "malformed flow-mod batch"}})
			return
		}
		// Mods apply strictly in order; the first failure aborts the rest,
		// leaving the already-applied prefix in place. The controller's
		// fence observes the error and rolls the partial version back.
		for i := range fb.Mods {
			if err := ApplyFlowMod(a.Net, a.Sw.ID, &fb.Mods[i]); err != nil {
				a.send(peer, Msg{Type: TypeError, Xid: m.Xid, Datapath: a.Sw.ID,
					Body: Error{Code: ErrCodeBadRequest, Message: err.Error()}})
				return
			}
		}

	case TypePacketOut:
		po, ok := m.Body.(PacketOut)
		if !ok {
			return
		}
		a.packetOut(peer, m.Xid, po)

	case TypeRoleRequest:
		rr, ok := m.Body.(RoleRequest)
		if !ok {
			return
		}
		peer.role = rr.Role
		a.send(peer, Msg{Type: TypeRoleReply, Xid: m.Xid, Datapath: a.Sw.ID,
			Body: RoleReply{Controller: peer.name, Role: rr.Role}})

	case TypeBarrierRequest:
		a.send(peer, Msg{Type: TypeBarrierReply, Xid: m.Xid, Datapath: a.Sw.ID, Body: Barrier{}})
	}
}

// ApplyFlowMod executes one FlowMod against a switch's flow table: the one
// place a FlowModCommand acquires its flow-table meaning, shared by the
// protocol agent and the in-process device adapter. Only FlowAdd can fail
// on a known command (admission control in the data plane); the delete
// commands are idempotent filters.
func ApplyFlowMod(net *dataplane.Network, sw dataplane.DeviceID, fm *FlowMod) error {
	switch fm.Command {
	case FlowAdd:
		return net.InstallRule(sw, fm.Rule)
	case FlowDeleteOwner:
		net.RemoveRulesOwner(sw, fm.Owner, nil)
	case FlowDeleteVersion:
		net.RemoveRulesIf(sw, func(r *dataplane.Rule) bool { return r.Version == fm.Version })
	case FlowDeleteOwnerBefore:
		net.RemoveRulesOwner(sw, fm.Owner, func(r *dataplane.Rule) bool { return r.Version < fm.Version })
	case FlowDeleteOwnerVersion:
		net.RemoveRulesOwner(sw, fm.Owner, func(r *dataplane.Rule) bool { return r.Version == fm.Version })
	default:
		return fmt.Errorf("southbound: unknown flow-mod command %d", fm.Command)
	}
	return nil
}

func (a *SwitchAgent) features() FeatureReply {
	return BuildFeatures(a.Sw)
}

// BuildFeatures constructs the FeatureReply for a physical switch. It is
// shared by the protocol agent and the in-process device adapter.
func BuildFeatures(sw *dataplane.Switch) FeatureReply {
	fr := FeatureReply{Device: sw.ID, Kind: dataplane.KindSwitch}
	for _, p := range sw.Ports() {
		up := p.Link == nil || p.Link.Up()
		fr.Ports = append(fr.Ports, PortInfo{
			ID: p.ID, Up: up, External: p.External,
			ExternalDomain: p.ExternalDomain, Radio: p.Radio,
		})
	}
	return fr
}

// packetOut emits a payload from a switch port. Control payloads crossing a
// physical link are delivered to the far switch's agent as a PacketIn —
// this is the data-plane leg of the recursive link discovery protocol
// (§4.1.2). Data packets are injected into the traversal engine on the far
// side.
func (a *SwitchAgent) packetOut(peer *agentPeer, xid uint32, po PacketOut) {
	if peer.role == RoleSlave || peer.role == RoleNone {
		return
	}
	port := a.Sw.PortByID(po.OutPort)
	if port == nil {
		a.send(peer, Msg{Type: TypeError, Xid: xid, Datapath: a.Sw.ID,
			Body: Error{Code: ErrCodeUnknownPort, Message: "packet-out on unknown port"}})
		return
	}
	if port.External || port.Link == nil || !port.Link.Up() {
		return // discovery frames die on external or down ports
	}
	far, ok := port.Link.Other(a.Sw.ID)
	if !ok {
		return
	}
	farSw := a.Net.Switch(far.Dev)
	if farSw == nil {
		return
	}
	if po.Control != nil {
		if f, ok := po.Control.(LinkMetaFiller); ok {
			f.FillLinkMeta(port.Link.Latency, port.Link.Available())
		}
		if h := farSw.Hook(); h != nil {
			if agent, ok := h.(*SwitchAgent); ok {
				agent.ControlIn(far.Port, po.Control)
			}
		}
		return
	}
	if po.Packet != nil {
		// A rejected injection means the packet died in the data plane
		// (unknown far switch, no matching rule) — exactly what happens to a
		// real frame, so there is nothing to report to the sending peer.
		_, _ = a.Net.Inject(far.Dev, far.Port, po.Packet) //softmow:allow errdiscard packet loss is data-plane behaviour, not an agent fault
	}
}
