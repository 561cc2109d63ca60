package northbound

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/routing"
	"repro/internal/southbound"
)

// AttachRemoteChild attaches a child controller reachable over conn to
// parent. The parent dials the southbound handshake (the child's Connect
// answers with its G-switch abstraction), child-originated northbound
// requests are dispatched to the parent's delegation/handover/teardown
// entry points, and the G-switch joins the parent's device table exactly
// like an in-process child's. The returned device handle is used for
// link stitching (PortInfo.Underlying) and UE-state pushes.
func AttachRemoteChild(parent *core.Controller, conn southbound.Conn) (*core.ConnDevice, error) {
	d, err := core.DialDevice(conn, parent.ID)
	if err != nil {
		return nil, err
	}
	d.SetPeerHandler(func(m southbound.Msg) { servePeer(parent, conn, m) })
	parent.AttachDevice(d)
	return d, nil
}

// servePeer answers one child-originated northbound request. It runs on
// its own goroutine (the device pump spawns one per request) because
// every handler below may issue synchronous southbound work back over
// this same connection — delegation installs rules on the requesting
// child, among others — and must not block the pump that completes those
// fences.
func servePeer(parent *core.Controller, conn southbound.Conn, m southbound.Msg) {
	var reply southbound.Msg
	switch b := m.Body.(type) {
	case southbound.NbBearer:
		id, owner, err := parent.DelegateBearerSetup(core.RouteRequest{
			From:      dataplane.PortRef{Dev: m.Datapath, Port: b.From},
			Prefix:    interdomain.PrefixID(b.Prefix),
			Objective: routing.Objective(b.Objective),
			Constraints: routing.Constraints{
				MaxHops:      b.MaxHops,
				MaxLatency:   b.MaxLatency,
				MinBandwidth: b.MinBandwidth,
			},
			MaxTotalHops: b.MaxTotalHops,
			MaxTotalRTT:  b.MaxTotalRTT,
		}, b.Match, b.Demand)
		reply = southbound.Msg{Type: southbound.TypeNbPathReply, Body: pathReplyBody(id, 0, owner, err)}

	case southbound.NbHandover:
		id, transfer, owner, err := parent.HandleInterRegionHandoverRequest(core.HandoverRequest{
			UE:     b.UE,
			SrcGBS: b.SrcGBS, SrcBS: b.SrcBS,
			DstGBS: b.DstGBS, DstBS: b.DstBS,
			Prefix: interdomain.PrefixID(b.Prefix), QoS: b.QoS,
			Objective: routing.Objective(b.Objective),
		})
		reply = southbound.Msg{Type: southbound.TypeNbPathReply, Body: pathReplyBody(id, transfer, owner, err)}

	case southbound.NbTeardown:
		err := parent.TeardownOwnedPath(b.Owner, core.PathID(b.Path), nil)
		reply = southbound.Msg{Type: southbound.TypeNbAck, Body: ackBody(err)}

	case southbound.NbInterdomain:
		routes := make([]core.TranslatedRoute, len(b.Options))
		for i, o := range b.Options {
			routes[i] = core.TranslatedRoute{
				Prefix: interdomain.PrefixID(o.Prefix),
				Option: core.RouteOption{
					Egress:   o.Egress,
					Ref:      dataplane.PortRef{Dev: m.Datapath, Port: o.Port},
					External: interdomain.Metrics{Hops: o.Hops, RTT: o.RTT},
				},
			}
		}
		reply = southbound.Msg{Type: southbound.TypeNbAck, Body: ackBody(parent.AcceptTranslatedRoutes(routes))}

	case southbound.NbFabric:
		parent.UpdateChildFabric(m.Datapath, b.Fabric)
		reply = southbound.Msg{Type: southbound.TypeNbAck, Body: southbound.NbAck{}}

	case southbound.NbReabstract:
		reply = southbound.Msg{Type: southbound.TypeNbAck, Body: ackBody(parent.RefreshChildAndReabstract(m.Datapath))}

	default:
		reply = southbound.Msg{Type: southbound.TypeNbAck,
			Body: southbound.NbAck{Err: fmt.Sprintf("unsupported northbound request %v", m.Type)}}
	}
	reply.Xid = m.Xid
	reply.Datapath = m.Datapath
	_ = conn.Send(reply) //softmow:allow errdiscard a reply that cannot be sent means the conn died; the child's request times out and the conn teardown resolves the rest

}

// pathReplyBody flattens a delegation/handover result for the wire. Only
// the owner's identity crosses; the requesting child rebinds it to a
// teardown-forwarding proxy on its side. transfer is a handover's transfer
// path at the same owner, 0 for a delegation.
func pathReplyBody(id, transfer core.PathID, owner core.PathOwner, err error) southbound.NbPathReply {
	if err != nil {
		return southbound.NbPathReply{Err: err.Error()}
	}
	return southbound.NbPathReply{Path: int64(id), Transfer: int64(transfer), Owner: owner.OwnerID()}
}

// ackBody flattens an error for the wire.
func ackBody(err error) southbound.NbAck {
	if err != nil {
		return southbound.NbAck{Err: err.Error()}
	}
	return southbound.NbAck{}
}

// TransferUEState pushes UE table rows to the child behind d and waits
// for its acknowledgement — the parent-side half of a §5.3.2 state
// transfer after a reconfiguration moves base stations between regions.
//
//softmow:allow testonly ROADMAP item 4: the wire §5.3 reconfigure event drives it
func TransferUEState(d *core.ConnDevice, rows []core.UERecord) error {
	wire := make([]southbound.NbUERow, len(rows))
	for i, r := range rows {
		wire[i] = southbound.NbUERow{
			UE: r.UE, BS: r.BS, Group: r.Group,
			Prefix: string(r.Prefix), QoS: r.QoS,
			Path: int64(r.PathID), Owner: r.HandledBy.OwnerID(), Active: r.Active,
		}
	}
	reply, err := d.Request(southbound.Msg{Type: southbound.TypeNbUEState,
		Body: southbound.NbUEState{Rows: wire}})
	return ackErr(reply, err)
}
