package northbound

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/discovery"
	"repro/internal/interdomain"
	"repro/internal/southbound"
)

// ParentConn is the child-side endpoint of a wire northbound attachment.
// One goroutine (serve) owns the receive side, processes parent requests
// in arrival order, and is the link's only goroutine. Mod messages go
// straight to the child's asynchronous verbs; a barrier seals a count of
// the mod messages since the previous one, and their last completion sends
// their errors in arrival order, then the barrier reply. So back-to-back
// parent operations overlap their translation round trips while every
// reply stays a true fence, and a failed translation is left to the
// parent's rollback, which follows the reply over this conn (DESIGN.md
// §11). Replies to the child's own northbound requests are routed to their
// waiters by transaction ID.
//
// ParentConn implements core.ParentLink, so installing it on a controller
// routes every upward code path (delegation, handover ascent, teardown
// forwarding, interdomain propagation, discovery ascent, reabstraction)
// over the wire with unchanged semantics.
type ParentConn struct {
	child *core.Controller
	conn  southbound.Conn
	// gswitch is the child's exposed G-switch ID, stamped as the datapath
	// on every outbound message.
	gswitch dataplane.DeviceID
	// parentID is the parent controller's ID, learned from its Hello.
	parentID string

	mu sync.Mutex
	// pending maps outstanding child-request xids to their reply
	// channels, guarded by mu.
	pending map[uint32]chan southbound.Msg
	// closed records connection teardown, guarded by mu.
	closed bool
	// serveDone is closed when the serve goroutine exits, so Close can
	// wait for the receive side to be fully quiescent.
	serveDone chan struct{}

	xid atomic.Uint32

	// open counts the modification messages since the last barrier, nil
	// when there are none; owned by the serve goroutine, so it needs no
	// lock.
	open *fence

	// RequestTimeout bounds each northbound round trip. Delegated bearer
	// setups fan out into southbound installs at the parent, so the bound
	// is looser than a single device round trip.
	RequestTimeout time.Duration
}

// Connect answers the parent's southbound handshake on conn on behalf of
// child (presenting the child's G-switch ID as the device name), installs
// the resulting link as the child's ParentLink, and starts the serve
// loop. The caller establishes the transport — typically a TCP dial
// toward the parent's listener — and hands the conn over; after Connect
// returns, the child's northbound is live.
func Connect(child *core.Controller, conn southbound.Conn) (*ParentConn, error) {
	parentID, err := southbound.Accept(conn, string(child.GSwitchID()))
	if err != nil {
		return nil, err
	}
	p := &ParentConn{
		child:          child,
		conn:           conn,
		gswitch:        child.GSwitchID(),
		parentID:       parentID,
		pending:        make(map[uint32]chan southbound.Msg),
		serveDone:      make(chan struct{}),
		RequestTimeout: 30 * time.Second,
	}
	if wd, ok := conn.(southbound.WriteDeadliner); ok {
		wd.SetWriteTimeout(p.RequestTimeout)
	}
	child.SetParentLink(p)
	go p.serve()
	return p, nil
}

// serve owns the receive side until the connection dies.
func (p *ParentConn) serve() {
	defer close(p.serveDone)
	defer p.failAll()
	for {
		m, err := p.conn.Recv()
		if err != nil {
			return
		}
		p.handle(m)
	}
}

// send transmits one reply or event toward the parent.
func (p *ParentConn) send(m southbound.Msg) {
	m.Datapath = p.gswitch
	_ = p.conn.Send(m) //softmow:allow errdiscard a reply that cannot be sent means the conn died; the parent's fences time out and its teardown resolves the rest
}

func (p *ParentConn) sendErr(xid uint32, code int, msg string) {
	p.send(southbound.Msg{Type: southbound.TypeError, Xid: xid,
		Body: southbound.Error{Code: code, Message: msg}})
}

// handle answers one parent request, or completes one child request.
// Mod messages are issued here and complete through the fence that the
// next barrier seals; everything else runs inline on the serve goroutine
// in arrival order (discovery emissions in particular must stay ordered
// ahead of the barriers that fence them). Child-originated waits never run
// here (they block on application goroutines), so inline handling cannot
// deadlock.
func (p *ParentConn) handle(m southbound.Msg) {
	switch m.Type {
	case southbound.TypeEchoRequest:
		body, _ := m.Body.(southbound.Echo)
		p.send(southbound.Msg{Type: southbound.TypeEchoReply, Xid: m.Xid, Body: body})

	case southbound.TypeFeatureRequest:
		p.send(southbound.Msg{Type: southbound.TypeFeatureReply, Xid: m.Xid, Body: p.child.RecAFeatures()})

	case southbound.TypeFlowMod:
		fm, ok := m.Body.(southbound.FlowMod)
		if !ok {
			p.sendErr(m.Xid, southbound.ErrCodeBadRequest, "malformed flow-mod body")
			return
		}
		p.startMods(m.Xid, []southbound.FlowMod{fm})

	case southbound.TypeFlowModBatch:
		fb, ok := m.Body.(southbound.FlowModBatch)
		if !ok {
			p.sendErr(m.Xid, southbound.ErrCodeBadRequest, "malformed flow-mod batch body")
			return
		}
		p.startMods(m.Xid, fb.Mods)

	case southbound.TypeBarrierRequest:
		// Fence exactly the modifications that arrived before this
		// barrier; later mods count toward the next one.
		f := p.open
		p.open = nil
		if f == nil {
			p.send(southbound.Msg{Type: southbound.TypeBarrierReply, Xid: m.Xid, Body: southbound.Barrier{}})
			return
		}
		f.barrier = m.Xid
		f.done() // releases the serve loop's count

	case southbound.TypePacketOut:
		po, ok := m.Body.(southbound.PacketOut)
		if !ok {
			return
		}
		if f, isFrame := po.Control.(*discovery.Frame); isFrame {
			_ = p.child.RecAEmitDiscovery(po.OutPort, f) //softmow:allow errdiscard discovery is periodic and self-healing, a lost frame is retried next round
		}

	case southbound.TypeNbUEState:
		st, ok := m.Body.(southbound.NbUEState)
		if !ok {
			p.send(southbound.Msg{Type: southbound.TypeNbAck, Xid: m.Xid,
				Body: southbound.NbAck{Err: "malformed ue-state body"}})
			return
		}
		p.child.AdoptUERecords(p.adoptRows(st.Rows))
		p.send(southbound.Msg{Type: southbound.TypeNbAck, Xid: m.Xid, Body: southbound.NbAck{}})

	case southbound.TypeEchoReply, southbound.TypeNbPathReply, southbound.TypeNbAck:
		p.mu.Lock()
		ch, ok := p.pending[m.Xid]
		if ok {
			delete(p.pending, m.Xid)
		}
		p.mu.Unlock()
		if ok {
			ch <- m
		}
	}
}

// fence joins the modification messages between two barriers. The
// completion that brings left to zero sends the refused mods' errors in
// arrival order — the parent consumes them at fence completion, so they
// must precede the reply — then the barrier reply.
type fence struct {
	p *ParentConn
	// left counts the mod completions due, plus one the serve loop holds
	// until a barrier seals the fence.
	left atomic.Int32
	// mods and barrier (the sealing xid) are written by the serve loop
	// before it releases its count.
	mods    int
	barrier uint32
	mu      sync.Mutex
	// refused lists the failed mods, guarded by mu.
	refused []modErr
}

// modErr is one refused mod message: its place in the fence, xid and error.
type modErr struct {
	seq int
	xid uint32
	err error
}

// done records one completion; it never blocks, so it is safe as a fence
// callback.
func (f *fence) done() {
	if f.left.Add(-1) != 0 {
		return
	}
	f.mu.Lock()
	refused := f.refused
	f.mu.Unlock()
	slices.SortFunc(refused, func(a, b modErr) int { return a.seq - b.seq })
	for _, r := range refused {
		f.p.sendErr(r.xid, southbound.ErrCodeBadRequest, r.err.Error())
	}
	f.p.send(southbound.Msg{Type: southbound.TypeBarrierReply, Xid: f.barrier, Body: southbound.Barrier{}})
}

// startMods issues one modification message's mods and counts it toward
// the next barrier's fence.
func (p *ParentConn) startMods(xid uint32, mods []southbound.FlowMod) {
	f := p.open
	if f == nil {
		f = &fence{p: p}
		f.left.Store(1)
		p.open = f
	}
	seq := f.mods
	f.mods++
	f.left.Add(1)
	p.applyMods(mods, func(err error) {
		if err != nil {
			f.mu.Lock()
			f.refused = append(f.refused, modErr{seq: seq, xid: xid, err: err})
			f.mu.Unlock()
		}
		f.done()
	})
}

// applyMods executes one message's virtual-rule modifications against the
// child's RecA — the wire face of the parent's logicalDevice calls (§4.3) —
// and then hears when the last completes. Within the message, mods apply
// strictly in order and the first failure aborts the rest (the
// SwitchAgent batch contract); a run of adds of one owner and version
// translates as one child batch. Across messages, ordering is the parent's
// job: it fences before issuing a dependent operation, e.g. a teardown
// only ever follows its setup's completed barrier.
func (p *ParentConn) applyMods(mods []southbound.FlowMod, then func(error)) {
	if len(mods) == 0 {
		then(nil)
		return
	}
	first, n := &mods[0], 1
	for n < len(mods) && first.Command == southbound.FlowAdd && mods[n].Command == southbound.FlowAdd &&
		mods[n].Rule.Owner == first.Rule.Owner && mods[n].Rule.Version == first.Rule.Version {
		n++
	}
	done := then
	if n < len(mods) {
		done = func(err error) {
			if err != nil {
				then(err)
				return
			}
			p.applyMods(mods[n:], then)
		}
	}
	if first.Command != southbound.FlowAdd {
		//softmow:allow errdiscard with a callback the outcome reaches done and the return is always nil
		_ = p.child.RemoveTranslated(first.Command, first.Owner, first.Version, done)
		return
	}
	rules := make([]dataplane.Rule, n)
	for i := range rules {
		rules[i] = mods[i].Rule
	}
	//softmow:allow errdiscard with a callback the outcome reaches done and the return is always nil
	_ = p.child.TranslateRules(rules, done)
}

// adoptRows rebinds transferred UE rows to live path owners: rows this
// child owns bind to it directly; rows owned by an ancestor bind to a
// proxy that forwards teardowns back up the wire.
func (p *ParentConn) adoptRows(rows []southbound.NbUERow) []core.UERecord {
	out := make([]core.UERecord, len(rows))
	for i, r := range rows {
		var owner core.PathOwner = remoteOwner{id: r.Owner, child: p.child}
		if r.Owner == p.child.ID {
			owner = p.child
		}
		out[i] = core.UERecord{
			UE:     r.UE,
			BS:     r.BS,
			Group:  r.Group,
			Prefix: interdomain.PrefixID(r.Prefix),
			QoS:    r.QoS,
			PathID: core.PathID(r.Path), HandledBy: owner, Active: r.Active,
		}
	}
	return out
}

// request performs one synchronous northbound round trip.
func (p *ParentConn) request(m southbound.Msg) (southbound.Msg, error) {
	x := p.xid.Add(1)
	m.Xid = x
	m.Datapath = p.gswitch
	ch := make(chan southbound.Msg, 1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return southbound.Msg{}, southbound.ErrClosed
	}
	p.pending[x] = ch
	p.mu.Unlock()
	if err := p.conn.Send(m); err != nil {
		p.mu.Lock()
		delete(p.pending, x)
		p.mu.Unlock()
		return southbound.Msg{}, err
	}
	t := time.NewTimer(p.RequestTimeout)
	defer t.Stop()
	select {
	case reply, ok := <-ch:
		if !ok {
			return southbound.Msg{}, southbound.ErrClosed
		}
		if e, isErr := reply.Body.(southbound.Error); isErr {
			return southbound.Msg{}, fmt.Errorf("northbound: %s: %s", p.parentID, e.Message)
		}
		return reply, nil
	case <-t.C:
		p.mu.Lock()
		delete(p.pending, x)
		p.mu.Unlock()
		return southbound.Msg{}, fmt.Errorf("northbound: %s request to %s timed out after %v", m.Type, p.parentID, p.RequestTimeout)
	}
}

// failAll marks the conn closed and wakes every waiter with ErrClosed.
func (p *ParentConn) failAll() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	pend := p.pending
	p.pending = make(map[uint32]chan southbound.Msg)
	p.mu.Unlock()
	// Every waiter gets the same closed-channel signal, so completion
	// order across the map iteration is unobservable.
	for _, ch := range pend {
		close(ch)
	}
}

// Close tears down the connection, fails every outstanding request, and
// waits for the serve goroutine to exit — after Close returns, the link
// has no goroutine left running.
func (p *ParentConn) Close() error {
	p.failAll()
	err := p.conn.Close()
	<-p.serveDone
	return err
}

// Drain waits until the child has no northbound request in flight, or the
// timeout elapses. A region process calls it on SIGTERM so a cluster
// teardown never abandons a delegation or teardown mid-flight.
func (p *ParentConn) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout) //softmow:allow determinism shutdown pacing only, never feeds replayable state
	for {
		p.mu.Lock()
		n := len(p.pending)
		closed := p.closed
		p.mu.Unlock()
		if n == 0 || closed {
			return nil
		}
		if !time.Now().Before(deadline) { //softmow:allow determinism shutdown pacing only, never feeds replayable state
			return fmt.Errorf("northbound: %d requests to %s still in flight after %v", n, p.parentID, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ControllerID implements core.ParentLink.
func (p *ParentConn) ControllerID() string { return p.parentID }

// DelegateBearer implements core.ParentLink: the §4.2 delegation request,
// carrying the leftover constraint budget, rides one NbBearer frame and
// blocks until the parent's NbPathReply.
func (p *ParentConn) DelegateBearer(req core.RouteRequest, match dataplane.Match, demand float64) (core.PathID, core.PathOwner, error) {
	reply, err := p.request(southbound.Msg{Type: southbound.TypeNbBearer, Body: southbound.NbBearer{
		From:         req.From.Port,
		Prefix:       string(req.Prefix),
		Objective:    int(req.Objective),
		MaxHops:      req.Constraints.MaxHops,
		MaxLatency:   req.Constraints.MaxLatency,
		MinBandwidth: req.Constraints.MinBandwidth,
		MaxTotalHops: req.MaxTotalHops,
		MaxTotalRTT:  req.MaxTotalRTT,
		Match:        match,
		Demand:       demand,
	}})
	return p.pathReply(reply, err)
}

// InterRegionHandover implements core.ParentLink: the §5.2 ascent toward
// the lowest common ancestor of the source and destination G-BSes.
func (p *ParentConn) InterRegionHandover(req core.HandoverRequest) (core.PathID, core.PathOwner, error) {
	reply, err := p.request(southbound.Msg{Type: southbound.TypeNbHandover, Body: southbound.NbHandover{
		UE:     req.UE,
		SrcGBS: req.SrcGBS, SrcBS: req.SrcBS,
		DstGBS: req.DstGBS, DstBS: req.DstBS,
		Prefix: string(req.Prefix), QoS: req.QoS, Objective: int(req.Objective),
	}})
	return p.pathReply(reply, err)
}

// TeardownOwned implements core.ParentLink: a teardown for a path owned at
// or above the parent is forwarded up the tree until it reaches its owner.
func (p *ParentConn) TeardownOwned(owner string, id core.PathID) error {
	reply, err := p.request(southbound.Msg{Type: southbound.TypeNbTeardown,
		Body: southbound.NbTeardown{Owner: owner, Path: int64(id)}})
	return ackErr(reply, err)
}

// PushInterdomain implements core.ParentLink. The child's translated
// options ride one message in the child's deterministic (sorted-prefix)
// order, which the parent preserves on append — Route() tie-breaks on
// insertion order, so preserving it keeps distributed route selection
// byte-identical to the in-process tree.
func (p *ParentConn) PushInterdomain(routes []core.TranslatedRoute) error {
	opts := make([]southbound.NbRouteOption, len(routes))
	for i, tr := range routes {
		opts[i] = southbound.NbRouteOption{
			Prefix: string(tr.Prefix),
			Egress: tr.Option.Egress,
			Port:   tr.Option.Ref.Port,
			Hops:   tr.Option.External.Hops,
			RTT:    tr.Option.External.RTT,
		}
	}
	reply, err := p.request(southbound.Msg{Type: southbound.TypeNbInterdomain,
		Body: southbound.NbInterdomain{Options: opts}})
	return ackErr(reply, err)
}

// DiscoveryArrival implements core.ParentLink: the translated frame rides
// a Packet-In event (xid 0), exactly how a physical switch reports a
// frame's return — the parent's ConnDevice dispatches it to
// HandleDiscoveryArrival like any other punted control packet.
func (p *ParentConn) DiscoveryArrival(gport dataplane.PortID, f *discovery.Frame) {
	p.send(southbound.Msg{Type: southbound.TypePacketIn,
		Body: southbound.PacketIn{InPort: gport, Control: f}})
}

// ChildRefreshed implements core.ParentLink (§5.3.2 bottom-up refresh):
// the parent re-reads this child's features and reabstracts.
func (p *ParentConn) ChildRefreshed() error {
	reply, err := p.request(southbound.Msg{Type: southbound.TypeNbReabstract, Body: southbound.NbReabstract{}})
	return ackErr(reply, err)
}

// FabricUpdated implements core.ParentLink (§3.2 threshold update): the
// recomputed virtual fabric replaces the parent's copy in place.
func (p *ParentConn) FabricUpdated(fab *dataplane.VFabric) error {
	reply, err := p.request(southbound.Msg{Type: southbound.TypeNbFabric, Body: southbound.NbFabric{Fabric: fab}})
	return ackErr(reply, err)
}

// pathReply decodes a delegation/handover response into the ParentLink
// return shape.
func (p *ParentConn) pathReply(m southbound.Msg, err error) (core.PathID, core.PathOwner, error) {
	if err != nil {
		return 0, nil, err
	}
	r, ok := m.Body.(southbound.NbPathReply)
	if !ok {
		return 0, nil, fmt.Errorf("northbound: malformed path reply body %T", m.Body)
	}
	if r.Err != "" {
		return 0, nil, remoteErr(r.Err)
	}
	var owner core.PathOwner = remoteOwner{id: r.Owner, child: p.child}
	return core.PathID(r.Path), owner, nil
}

// ackErr decodes an NbAck response.
func ackErr(m southbound.Msg, err error) error {
	if err != nil {
		return err
	}
	a, ok := m.Body.(southbound.NbAck)
	if !ok {
		return fmt.Errorf("northbound: malformed ack body %T", m.Body)
	}
	if a.Err != "" {
		return remoteErr(a.Err)
	}
	return nil
}

// remoteErr rehydrates an error string carried over the wire. ErrNoRoute
// is restored as a wrapped sentinel so errors.Is keeps working across the
// process boundary — admission control branches on it.
func remoteErr(s string) error {
	if strings.Contains(s, core.ErrNoRoute.Error()) {
		return fmt.Errorf("%w (remote: %s)", core.ErrNoRoute, s)
	}
	return errors.New(s)
}

// remoteOwner is a PathOwner proxy for a path owned by an ancestor
// reachable only over the wire: teardowns forward up through the child's
// own ParentLink until they reach the owner; path-table introspection
// reports not-found, as remote tables are not readable.
type remoteOwner struct {
	id    string
	child *core.Controller
}

// OwnerID implements core.PathOwner.
func (o remoteOwner) OwnerID() string { return o.id }

// TeardownPath implements core.PathOwner by forwarding toward the owner.
func (o remoteOwner) TeardownPath(id core.PathID) error {
	return o.child.TeardownOwnedPath(o.id, id)
}

// Path implements core.PathOwner; remote path tables are not
// introspectable, so every lookup reports not-found.
func (o remoteOwner) Path(core.PathID) (core.PathRecord, bool) {
	return core.PathRecord{}, false
}
