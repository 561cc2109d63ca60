// Package southbound defines the OpenFlow-like control protocol spoken
// between SoftMoW controllers and data-plane devices — physical switches at
// the leaf level, and gigantic (logical) devices exposed by child
// controllers at higher levels (§3.3: "NOS communicates with switches
// (logical or physical) using a southbound API, e.g. OpenFlow API extended
// to support our virtual fabric feature").
//
// Two transports are provided: an in-process channel pair (Pipe) for
// simulations, and the length-prefixed binary codec over TCP (NewBinConn)
// for distributed deployments. Both satisfy the Conn interface, and
// codec.go is the only place that knows how a Msg becomes bytes.
//
// # Message model
//
// Every exchange is a Msg carrying a MsgType, a transaction ID (Xid) for
// request/reply correlation, and a typed Body (messages.go). Rule
// programming is asynchronous: TypeFlowMod and TypeFlowModBatch are not
// individually acknowledged; the controller fences a logical group of
// modifications with one TypeBarrierRequest, and a device reports
// failures via TypeError referencing the offending Xid. A
// TypeFlowModBatch is applied strictly in order and aborts at the first
// failing FlowMod, so after an error the device holds exactly a prefix
// of the batch — the controller rolls that prefix back by owner/version
// (see internal/core's flushBatch). DESIGN.md §"Southbound rule
// programming" specifies the full protocol and its failure semantics.
//
// # Package layout
//
//   - messages.go — wire types: MsgType, Msg, FlowMod, FlowModBatch,
//     FeatureReply, PacketIn/Out, PortStatus, roles, errors
//   - conn.go — Conn interface, Pipe, handshakes (Handshake/Accept)
//   - codec.go, binconn.go — the binary frame codec and BinConn, its TCP
//     transport with fragmentation and write deadlines
//   - agent.go — SwitchAgent, the device-side endpoint serving a
//     physical switch to one or more controllers with role arbitration
package southbound
