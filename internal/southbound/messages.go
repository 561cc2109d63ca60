package southbound

import (
	"fmt"
	"time"

	"repro/internal/dataplane"
)

// MsgType enumerates protocol message types. The values are wire
// contract: the binary codec (codec.go) writes the enum value as the
// frame's type byte, so new types must be appended at the end of the
// iota block, never inserted.
type MsgType int

const (
	// TypeHello opens a channel.
	TypeHello MsgType = iota
	// TypeEchoRequest / TypeEchoReply implement liveness probing.
	TypeEchoRequest
	// TypeEchoReply answers an echo request with the same Xid.
	TypeEchoReply
	// TypeFeatureRequest asks a device to describe itself; G-switches
	// answer with their virtual fabric (the SoftMoW OpenFlow extension).
	TypeFeatureRequest
	// TypeFeatureReply carries the FeatureReply body back to the controller.
	TypeFeatureReply
	// TypePacketIn punts a packet (or an encapsulated control payload such
	// as a link-discovery message) from device to controller.
	TypePacketIn
	// TypePacketOut sends a payload out of a device port.
	TypePacketOut
	// TypeFlowMod installs or removes flow rules.
	TypeFlowMod
	// TypePortStatus notifies link up/down.
	TypePortStatus
	// TypeRoleRequest / TypeRoleReply manage controller roles during
	// region reconfiguration (§5.3.2, OFPCR_ROLE_EQUAL et al.).
	TypeRoleRequest
	// TypeRoleReply acknowledges the role a device granted.
	TypeRoleReply
	// TypeBarrierRequest / TypeBarrierReply fence rule installation.
	TypeBarrierRequest
	// TypeBarrierReply signals every earlier message has been processed.
	TypeBarrierReply
	// TypeError reports a device-side failure for a prior request.
	TypeError
	// TypeFlowModBatch carries several FlowMods applied in order as one
	// message, cutting per-rule round trips; it is appended to the enum so
	// single-FlowMod peers stay wire compatible.
	TypeFlowModBatch
	// TypeFrag is a transport-level continuation frame: a logical frame
	// whose payload exceeds MaxFrameSize is split into a run of TypeFrag
	// frames that the receiving BinConn reassembles before decoding
	// (northbound abstraction snapshots can exceed one frame).
	TypeFrag
	// TypeNbBearer is a child→parent northbound bearer delegation: the
	// child could not satisfy a route locally and asks the parent to
	// resolve and implement it (§4.2 delegation over the wire).
	TypeNbBearer
	// TypeNbPathReply answers TypeNbBearer / TypeNbHandover with the path
	// ID and owning controller, or an error.
	TypeNbPathReply
	// TypeNbHandover is a child→parent inter-region handover request
	// ascending toward the lowest common ancestor (§5.2).
	TypeNbHandover
	// TypeNbTeardown asks an ancestor to tear down a path it owns (§5.1
	// "request bearer deactivation from its parent via RecA").
	TypeNbTeardown
	// TypeNbAck acknowledges a northbound request that carries no result
	// payload (teardown, interdomain push, fabric update, reabstract,
	// UE-state transfer).
	TypeNbAck
	// TypeNbInterdomain pushes a child's translated interdomain route
	// options to the parent (§4.2 "sends it to the parent (with
	// translation to the G-switch)").
	TypeNbInterdomain
	// TypeNbFabric pushes an updated virtual fabric to the parent when the
	// bandwidth drift exceeds the notification threshold (§3.2).
	TypeNbFabric
	// TypeNbReabstract tells the parent the child's abstraction changed:
	// the parent re-reads features, re-runs discovery, and reabstracts
	// upward (§5.3.2 bottom-up update).
	TypeNbReabstract
	// TypeNbUEState transfers UE table rows to a controller adopting them
	// (§5.3.2 state transfer during region reconfiguration).
	TypeNbUEState
)

// PeerRequest reports whether a message type is a northbound request a
// child controller originates toward its parent. The parent's ConnDevice
// pump classifies these BEFORE xid-based reply routing: child requests
// carry the child's own xid counter, whose values collide with the
// parent's fence xids, so without the type filter a child request could
// falsely complete an outstanding fence. TypeNbUEState flows
// parent→child only and is deliberately excluded.
func (t MsgType) PeerRequest() bool {
	switch t {
	case TypeNbBearer, TypeNbHandover, TypeNbTeardown, TypeNbInterdomain,
		TypeNbFabric, TypeNbReabstract:
		return true
	}
	return false
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	names := map[MsgType]string{
		TypeHello: "hello", TypeEchoRequest: "echo-req", TypeEchoReply: "echo-rep",
		TypeFeatureRequest: "feature-req", TypeFeatureReply: "feature-rep",
		TypePacketIn: "packet-in", TypePacketOut: "packet-out",
		TypeFlowMod: "flow-mod", TypePortStatus: "port-status",
		TypeRoleRequest: "role-req", TypeRoleReply: "role-rep",
		TypeBarrierRequest: "barrier-req", TypeBarrierReply: "barrier-rep",
		TypeError: "error", TypeFlowModBatch: "flow-mod-batch",
		TypeFrag: "frag", TypeNbBearer: "nb-bearer", TypeNbPathReply: "nb-path-rep",
		TypeNbHandover: "nb-handover", TypeNbTeardown: "nb-teardown",
		TypeNbAck: "nb-ack", TypeNbInterdomain: "nb-interdomain",
		TypeNbFabric: "nb-fabric", TypeNbReabstract: "nb-reabstract",
		TypeNbUEState: "nb-ue-state",
	}
	if s, ok := names[t]; ok {
		return s
	}
	return fmt.Sprintf("msgtype(%d)", int(t))
}

// Msg is the protocol envelope. Body holds one of the typed payload structs
// below according to Type. On the wire the envelope is framed by the
// binary codec — length prefix, version byte, type byte, xid, datapath —
// with the body hand-encoded per type (see codec.go for the layout and
// DESIGN.md §7 for the frame table).
type Msg struct {
	Type MsgType
	// Xid correlates requests and replies.
	Xid uint32
	// Datapath identifies the device the message concerns.
	Datapath dataplane.DeviceID
	Body     interface{}
}

// Role is a controller's role toward a device (§5.3.2).
type Role int

const (
	// RoleMaster is the default single-controller role.
	RoleMaster Role = iota
	// RoleEqual grants a second controller full event visibility during a
	// region handover (OFPCR_ROLE_EQUAL).
	RoleEqual
	// RoleSlave receives events but may not install rules.
	RoleSlave
	// RoleNone detaches the controller.
	RoleNone
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleMaster:
		return "master"
	case RoleEqual:
		return "equal"
	case RoleSlave:
		return "slave"
	case RoleNone:
		return "none"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Hello is the Body of TypeHello.
type Hello struct {
	// Sender names the connecting entity (controller or device ID).
	Sender string
	// Version is the protocol version; mismatches are rejected.
	Version int
}

// ProtocolVersion is the current protocol version.
const ProtocolVersion = 1

// Echo is the Body of TypeEchoRequest/TypeEchoReply.
type Echo struct {
	Payload string
}

// FeatureRequest is the Body of TypeFeatureRequest.
type FeatureRequest struct{}

// PortInfo describes one device port in a FeatureReply.
type PortInfo struct {
	ID             dataplane.PortID
	Up             bool
	External       bool
	ExternalDomain string
	// Radio names the BS group served through this port, if any.
	Radio dataplane.DeviceID
	// Underlying is the child-topology port a G-switch border port maps
	// to (zero for physical switch ports). Cluster launchers use it to
	// identify cross-region ports when injecting inter-G-switch links the
	// distributed deployment cannot discover in-band.
	Underlying dataplane.PortRef
}

// FeatureReply is the Body of TypeFeatureReply. For gigantic switches,
// Fabric carries the virtual-fabric annotations and GBSes/GMiddleboxes the
// attached logical radio and middlebox devices (§3.1–3.2).
type FeatureReply struct {
	Device dataplane.DeviceID
	Kind   dataplane.DeviceKind
	Ports  []PortInfo
	// Fabric is nil for physical switches.
	Fabric *dataplane.VFabric
	// GBSes lists attached gigantic base stations (G-switch replies only).
	GBSes []dataplane.GBSInfo
	// GMiddleboxes lists attached gigantic middleboxes.
	GMiddleboxes []dataplane.GMiddleboxInfo
}

// PacketIn is the Body of TypePacketIn.
type PacketIn struct {
	InPort dataplane.PortID
	// Packet is set for punted data-plane packets.
	Packet *dataplane.Packet
	// Control is set for encapsulated control payloads. In-process pipes
	// carry any value; the wire codec carries nil or a *discovery.Frame
	// (the one payload any sender uses) and refuses to encode anything
	// else.
	Control interface{}
}

// PacketOut is the Body of TypePacketOut.
type PacketOut struct {
	OutPort dataplane.PortID
	Packet  *dataplane.Packet
	Control interface{}
}

// FlowModCommand selects install vs delete.
type FlowModCommand int

const (
	// FlowAdd installs a rule.
	FlowAdd FlowModCommand = iota
	// FlowDeleteOwner removes rules by owner.
	FlowDeleteOwner
	// FlowDeleteVersion removes rules by version.
	FlowDeleteVersion
	// FlowDeleteOwnerBefore removes an owner's rules with a version older
	// than the given one (consistent path updates, §6).
	FlowDeleteOwnerBefore
	// FlowDeleteOwnerVersion removes exactly an owner's rules of one
	// version (rollback of a partially installed update, §6).
	FlowDeleteOwnerVersion
)

// FlowMod is the Body of TypeFlowMod.
type FlowMod struct {
	Command FlowModCommand
	Rule    dataplane.Rule
	// Owner / Version select rules for the delete commands.
	Owner   string
	Version int
}

// FlowModBatch is the Body of TypeFlowModBatch. The device applies Mods
// strictly in order and stops at the first failure, replying with a single
// TypeError carrying the batch Xid; mods after the failing one are not
// applied. A successful batch is acknowledged only implicitly — the sender
// fences it with one TypeBarrierRequest per logical operation instead of one
// per rule, which is where the round-trip reduction comes from.
type FlowModBatch struct {
	Mods []FlowMod
}

// PortStatus is the Body of TypePortStatus.
type PortStatus struct {
	Port dataplane.PortID
	Up   bool
}

// RoleRequest is the Body of TypeRoleRequest.
type RoleRequest struct {
	Controller string
	Role       Role
}

// RoleReply is the Body of TypeRoleReply.
type RoleReply struct {
	Controller string
	Role       Role
}

// Barrier is the Body of barrier messages.
type Barrier struct{}

// Error is the Body of TypeError.
type Error struct {
	Code    int
	Message string
}

// Error codes.
const (
	ErrCodeBadRequest = iota + 1
	ErrCodeVersionMismatch
	ErrCodePermission
	ErrCodeUnknownPort
)

// Frag is the Body of TypeFrag: one piece of a logical frame whose
// encoding exceeds MaxFrameSize. Fragments of one logical frame are sent
// contiguously on the conn (the sender holds its write lock across the
// run); Last marks the final piece.
type Frag struct {
	Last bool
	Data []byte
}

// NbBearer is the Body of TypeNbBearer: a route request the child could
// not satisfy locally, translated to the child's exposed G-switch
// (Datapath names the G-switch; From is the exposed source gport). The
// parent resolves it recursively, implements the path with the given
// match and bandwidth demand, and answers with an NbPathReply.
type NbBearer struct {
	// From is the source gport on the child's G-switch.
	From dataplane.PortID
	// Prefix is the destination prefix.
	Prefix string
	// Objective selects the routing objective (routing.Objective).
	Objective int
	// MaxHops / MaxLatency / MinBandwidth carry routing.Constraints.
	MaxHops      int
	MaxLatency   time.Duration
	MinBandwidth float64
	// MaxTotalHops / MaxTotalRTT bound internal + external totals.
	MaxTotalHops int
	MaxTotalRTT  time.Duration
	// Match is the flow match the implemented path classifies on.
	Match dataplane.Match
	// Demand is the per-link bandwidth reservation in Mbps.
	Demand float64
}

// NbPathReply is the Body of TypeNbPathReply: the outcome of a bearer
// delegation or handover request. Err is empty on success.
type NbPathReply struct {
	// Path is the path ID at the owning controller.
	Path int64
	// Transfer is a handover's transfer path at the same owner, still
	// installed for in-flight packets; the requester releases it with the
	// old path. 0 when there is none, and always for a delegation.
	Transfer int64
	// Owner is the ID of the controller that resolved and owns the path.
	Owner string
	Err   string
}

// NbHandover is the Body of TypeNbHandover, mirroring core's §5.2
// HandoverRequest.
type NbHandover struct {
	UE        string
	SrcGBS    dataplane.DeviceID
	SrcBS     dataplane.DeviceID
	DstGBS    dataplane.DeviceID
	DstBS     dataplane.DeviceID
	Prefix    string
	QoS       int
	Objective int
}

// NbTeardown is the Body of TypeNbTeardown: tear down path Path at the
// ancestor controller named Owner. The receiving parent executes it
// itself or forwards it up the tree; the reply is an NbAck.
type NbTeardown struct {
	Owner string
	Path  int64
}

// NbAck is the Body of TypeNbAck. Err is empty on success.
type NbAck struct {
	Err string
}

// NbRouteOption is one translated interdomain route option in an
// NbInterdomain push: the egress name, the gport on the child's exposed
// G-switch, and the externally measured metrics.
type NbRouteOption struct {
	Prefix string
	Egress string
	Port   dataplane.PortID
	Hops   int
	RTT    time.Duration
}

// NbInterdomain is the Body of TypeNbInterdomain: the child's interdomain
// route options translated to its exposed G-switch ports, in the child's
// deterministic (sorted-prefix, option-append) order. The parent appends
// them in exactly this order — Route() tie-breaks on append order, so the
// order is replay-visible.
type NbInterdomain struct {
	Options []NbRouteOption
}

// NbFabric is the Body of TypeNbFabric: the child's updated virtual
// fabric, encoded like FeatureReply.Fabric.
type NbFabric struct {
	Fabric *dataplane.VFabric
}

// NbReabstract is the Body of TypeNbReabstract.
type NbReabstract struct{}

// NbUERow is one transferred UE table row in an NbUEState message. Owner
// names the controller owning the row's path; the adopting controller
// rebinds it to itself or to a northbound proxy.
type NbUERow struct {
	UE     string
	BS     dataplane.DeviceID
	Group  dataplane.DeviceID
	Prefix string
	QoS    int
	Path   int64
	Owner  string
	Active bool
}

// NbUEState is the Body of TypeNbUEState: UE rows for the receiver to
// adopt (§5.3.2). Answered with an NbAck.
type NbUEState struct {
	Rows []NbUERow
}
