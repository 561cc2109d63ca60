package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataplane"
	"repro/internal/discovery"
	"repro/internal/southbound"
)

// ConnDevice is a Device implementation speaking the southbound wire
// protocol over a southbound.Conn — the deployment mode of the paper's
// prototype where "leaf controllers use the OpenFlow protocol to
// communicate with switches" (§7.1). It pairs with
// southbound.SwitchAgent.Serve on the device side and works over both
// in-process pipes and binary-framed TCP connections.
//
// A pump goroutine dispatches asynchronous events (Packet-In, Port-Status)
// to the owning controller and routes replies by transaction ID; it is the
// device's only long-lived goroutine. Fences are asynchronous completions:
// each outstanding barrier lives in a table keyed by its current barrier
// xid, and its callback fires when the reply arrives, when the retry
// budget is exhausted (a timer callback, not a parked goroutine, expires
// fences), or when the connection dies. The synchronous Device methods are
// thin waits over that table, so callers that can overlap fences (the
// batch pipeline) share the conn with callers that cannot.
type ConnDevice struct {
	id   dataplane.DeviceID
	conn southbound.Conn

	mu sync.Mutex
	// ctrl is the attached controller, guarded by mu.
	ctrl *Controller
	// pending maps synchronous request xids (features, roles, explicit
	// barriers) to reply channels, guarded by mu.
	pending map[uint32]chan southbound.Msg
	// mods maps fenced modification xids to the device's error reply, if
	// one arrived (nil until then), guarded by mu. Entries are consumed
	// when the covering fence completes.
	mods map[uint32]error
	// barriers maps each outstanding fence's CURRENT barrier xid to its
	// completion, guarded by mu. A timed-out attempt re-keys the
	// completion under a fresh xid, so a stale reply to the old xid finds
	// nothing to satisfy — it cannot complete a newer fence.
	barriers map[uint32]*barrierComp
	// dl is the fence deadline queue sorted by expiry (adaptive timeouts
	// and retry backoff make deadlines non-monotonic, so entries insert
	// in order rather than append FIFO); the live entries are
	// dl[dlHead:], popped slots are zeroed. guarded by mu.
	dl []dlEntry
	// dlHead indexes the earliest queued deadline in dl, guarded by mu.
	dlHead int
	// srtt is the smoothed round-trip estimate (Jacobson/Karels EWMA,
	// gain 1/8), guarded by mu.
	srtt time.Duration
	// rttvar is the smoothed mean RTT deviation (gain 1/4), guarded by mu.
	rttvar time.Duration
	// rttSamples counts accepted RTT observations, guarded by mu.
	rttSamples int64
	// closed records connection teardown, guarded by mu.
	closed bool
	// backlog holds events that arrived during the feature handshake,
	// before any controller was attached; setController replays them.
	// guarded by mu.
	backlog []southbound.Msg
	// peerHandler receives child-originated northbound requests (messages
	// whose type reports PeerRequest) when the far end of this conn is a
	// child controller's RecA agent rather than a switch. guarded by mu.
	peerHandler func(southbound.Msg)

	// dlTimer runs onDeadline when the earliest live deadline is due. It is
	// re-armed under mu, by fireDeadlines for the next live head and by
	// whoever inserts a new head into dl; a deadline queued behind the head
	// arms nothing. Teardown stops it.
	dlTimer *time.Timer

	// loops tracks the pump goroutine and any deadline callback in flight;
	// peerWG tracks in-flight peer-request handler goroutines. WaitStopped
	// waits on both so teardown paths (and leak-checked tests) can prove
	// the device left nothing running.
	loops  sync.WaitGroup
	peerWG sync.WaitGroup

	xid atomic.Uint32

	// RequestTimeout bounds synchronous request round-trips. For fences it
	// is the ceiling the RTT estimator can never exceed, and the attempt
	// timeout before the first sample arrives (see rtoLocked).
	RequestTimeout time.Duration
	// BarrierRetries is how many extra barrier attempts a fence makes after
	// a timeout before the operation is reported failed (each attempt is
	// itself bounded by the attempt timeout). Closed connections never
	// retry.
	BarrierRetries int
	// MinRTO floors the adaptive timeout so microsecond in-process RTTs
	// don't arm hair-trigger deadlines that fire on any scheduling blip.
	MinRTO time.Duration
}

// barrierComp is one outstanding fence: the callback to fire exactly once,
// the modification xid the fence covers, the retry budget consumed, and
// when the current attempt went on the wire (for RTT sampling; zero after
// a retransmit per Karn's rule).
type barrierComp struct {
	cb       func(error)
	modXid   uint32
	attempts int
	sentAt   time.Time
}

// dlEntry is one scheduled fence timeout. xid snapshots the barrier xid
// the entry was armed for: after a re-key, the old entry's xid no longer
// maps to comp in the barrier table and the entry is ignored.
type dlEntry struct {
	comp *barrierComp
	xid  uint32
	at   time.Time
}

// DialDevice completes the Hello handshake as controllerID and returns a
// running ConnDevice for the switch at the far end. On connections that
// support write deadlines (the binary codec), each Send is bounded by the
// device's RequestTimeout so a stalled peer fails fast instead of wedging
// the conn.
func DialDevice(conn southbound.Conn, controllerID string) (*ConnDevice, error) {
	if err := southbound.Handshake(conn, controllerID); err != nil {
		return nil, err
	}
	d := &ConnDevice{
		conn:           conn,
		pending:        make(map[uint32]chan southbound.Msg),
		mods:           make(map[uint32]error),
		barriers:       make(map[uint32]*barrierComp),
		RequestTimeout: 5 * time.Second,
		BarrierRetries: 2,
		MinRTO:         5 * time.Millisecond,
	}
	if wd, ok := conn.(southbound.WriteDeadliner); ok {
		wd.SetWriteTimeout(d.RequestTimeout)
	}
	// Learn the device ID via an initial feature request, synchronously,
	// before the pump starts (no concurrent readers yet).
	x := d.xid.Add(1)
	if err := conn.Send(southbound.Msg{Type: southbound.TypeFeatureRequest, Xid: x, Body: southbound.FeatureRequest{}}); err != nil {
		return nil, err
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			return nil, err
		}
		if m.Type == southbound.TypeFeatureReply && m.Xid == x {
			fr, ok := m.Body.(southbound.FeatureReply)
			if !ok {
				return nil, fmt.Errorf("core: malformed feature reply %T", m.Body)
			}
			d.id = fr.Device
			break
		}
		// Events racing the handshake are buffered and replayed to the
		// controller once one attaches (setController); dropping them here
		// used to lose e.g. the first port flap after an agent restart.
		if m.Type == southbound.TypePacketIn || m.Type == southbound.TypePortStatus {
			//softmow:allow lockguard pump has not started, this goroutine is the only accessor
			d.backlog = append(d.backlog, m)
		}
	}
	d.dlTimer = time.AfterFunc(time.Hour, d.onDeadline) // re-armed by the first fence; failAll stops it
	d.loops.Add(1)
	go d.pump()
	return d, nil
}

func (d *ConnDevice) setController(c *Controller) {
	d.mu.Lock()
	d.ctrl = c
	var backlog []southbound.Msg
	if c != nil {
		backlog, d.backlog = d.backlog, nil
	}
	d.mu.Unlock()
	// Replay handshake-raced events outside the lock, in arrival order.
	for _, m := range backlog {
		d.dispatchEvent(c, m)
	}
}

func (d *ConnDevice) controller() *Controller {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctrl
}

// SetPeerHandler installs the callback for child-originated northbound
// requests arriving on this conn (delegation, handover ascent, interdomain
// pushes). The handler runs on its own goroutine per request and may issue
// synchronous southbound operations back through this device.
func (d *ConnDevice) SetPeerHandler(h func(southbound.Msg)) {
	d.mu.Lock()
	d.peerHandler = h
	d.mu.Unlock()
}

func (d *ConnDevice) peerHandlerRef() func(southbound.Msg) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peerHandler
}

// Drain waits for every in-flight modification, fence, and synchronous
// request on this device to complete, or for the timeout to elapse. A
// region process calls it on SIGTERM so a cluster teardown never strands a
// half-installed batch behind a closed connection.
func (d *ConnDevice) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout) //softmow:allow determinism shutdown pacing only, never feeds replayable state
	for {
		d.mu.Lock()
		n := len(d.mods) + len(d.barriers) + len(d.pending)
		closed := d.closed
		d.mu.Unlock()
		if n == 0 || closed {
			return nil
		}
		if !time.Now().Before(deadline) { //softmow:allow determinism shutdown pacing only, never feeds replayable state
			return fmt.Errorf("core: device %s: %d operations still in flight after %v", d.id, n, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close tears down the connection, fails pending requests, and completes
// every outstanding fence with ErrClosed. It does not wait for the pump
// and deadline goroutines — controller event handlers run on the pump, so
// a Close issued from one would self-deadlock; callers that must prove
// quiescence follow up with WaitStopped from a different goroutine.
func (d *ConnDevice) Close() error {
	d.failAll()
	return d.conn.Close()
}

// WaitStopped blocks until the device's pump goroutine, any deadline
// callback in flight and every in-flight peer-request handler have exited.
// Call it after Close (or after the conn died), never from a controller
// event handler — those run on the pump goroutine and would deadlock
// waiting on themselves.
func (d *ConnDevice) WaitStopped() {
	d.loops.Wait()
	d.peerWG.Wait()
}

// failAll marks the device closed and fails everything outstanding:
// pending sync requests, fenced modifications, and barrier completions.
// Idempotent; shared by Close and the pump's connection-death path, so a
// device that dies mid-operation unwedges its callers immediately instead
// of leaving them to time out through the retry budget.
func (d *ConnDevice) failAll() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	pend := d.pending
	d.pending = make(map[uint32]chan southbound.Msg)
	comps := make([]*barrierComp, 0, len(d.barriers))
	//softmow:allow determinism every completion gets the same ErrClosed and callbacks are mutually independent, so collection order is not replay-visible
	for _, comp := range d.barriers {
		comps = append(comps, comp)
	}
	d.barriers = make(map[uint32]*barrierComp)
	d.mods = make(map[uint32]error)
	d.dl, d.dlHead = nil, 0
	d.dlTimer.Stop()
	d.mu.Unlock()
	for _, ch := range pend {
		close(ch)
	}
	// Map order is fine here: every completion gets the same ErrClosed and
	// callbacks are independent of each other.
	for _, comp := range comps {
		comp.cb(southbound.ErrClosed)
	}
}

func (d *ConnDevice) pump() {
	defer d.loops.Done()
	// A dead connection fails all outstanding work: retrying fences into a
	// closed conn cannot succeed and would stall rollback of the other
	// path devices behind BarrierRetries×RequestTimeout of dead air.
	defer d.failAll()
	for {
		m, err := d.conn.Recv()
		if err != nil {
			return
		}
		// Child-originated northbound requests carry xids from the CHILD's
		// counter, which collides with this side's fence xids — route them
		// by type before any xid table is consulted. Each request runs on
		// its own goroutine: handlers do southbound work back over this
		// very conn, so handling inline would deadlock the fences the
		// handler waits on.
		if m.Type.PeerRequest() {
			if h := d.peerHandlerRef(); h != nil {
				d.peerWG.Add(1)
				go func() {
					defer d.peerWG.Done()
					h(m)
				}()
			}
			continue
		}
		// Reply routing.
		if m.Xid != 0 {
			d.mu.Lock()
			// Outstanding fence? Only a reply carrying the fence's CURRENT
			// barrier xid completes it; replies to timed-out attempts fall
			// through every table and are dropped below.
			if comp, ok := d.barriers[m.Xid]; ok {
				delete(d.barriers, m.Xid)
				if comp.attempts == 0 && !comp.sentAt.IsZero() {
					//softmow:allow determinism RTT measurement shapes timeout pacing only, never replayable state
					d.observeRTTLocked(time.Now().Sub(comp.sentAt))
				}
				ferr := d.takeModErrLocked(comp)
				d.mu.Unlock()
				if m.Type == southbound.TypeError && ferr == nil {
					ferr = d.errorFrom(m)
				}
				comp.cb(ferr)
				continue
			}
			// Fenced modification? Stash its error for the covering fence.
			//softmow:allow errdiscard presence probe only; the stored error is consumed at fence completion
			if _, ok := d.mods[m.Xid]; ok {
				if m.Type == southbound.TypeError {
					d.mods[m.Xid] = d.modRefused(m)
				}
				d.mu.Unlock()
				continue
			}
			ch, ok := d.pending[m.Xid]
			if ok {
				delete(d.pending, m.Xid)
			}
			d.mu.Unlock()
			if ok {
				ch <- m
				continue
			}
			if m.Type != southbound.TypePacketIn && m.Type != southbound.TypePortStatus {
				if m.Type == southbound.TypeBarrierReply {
					// A barrier answered after its fence timed out and was
					// re-keyed (or failed): the fingerprint of a spurious
					// retry — the deadline fired on a live, merely slow
					// channel. Adaptive timeouts exist to keep this near 0.
					connStaleBarrierReplies.Inc()
				}
				continue // stale reply (e.g. a barrier answered after its fence expired)
			}
		}
		// Event dispatch.
		c := d.controller()
		if c == nil {
			continue
		}
		d.dispatchEvent(c, m)
	}
}

// takeModErrLocked consumes the error recorded for the fence's
// modification; caller holds mu.
func (d *ConnDevice) takeModErrLocked(comp *barrierComp) error {
	err := d.mods[comp.modXid]
	delete(d.mods, comp.modXid)
	return err
}

func (d *ConnDevice) modRefused(m southbound.Msg) error {
	if e, ok := m.Body.(southbound.Error); ok {
		return fmt.Errorf("core: device %s refused modification: %s (code %d)", d.id, e.Message, e.Code)
	}
	return fmt.Errorf("core: device %s refused modification", d.id)
}

func (d *ConnDevice) errorFrom(m southbound.Msg) error {
	if e, ok := m.Body.(southbound.Error); ok {
		return fmt.Errorf("core: device %s: %s (code %d)", d.id, e.Message, e.Code)
	}
	return fmt.Errorf("core: device %s returned an error", d.id)
}

// dispatchEvent hands one asynchronous device event (Packet-In or
// Port-Status) to the controller. Shared by the pump loop and the
// handshake-backlog replay in setController.
func (d *ConnDevice) dispatchEvent(c *Controller, m southbound.Msg) {
	switch m.Type {
	case southbound.TypePacketIn:
		pi, ok := m.Body.(southbound.PacketIn)
		if !ok {
			return
		}
		if f, isFrame := pi.Control.(*discovery.Frame); isFrame {
			c.HandleDiscoveryArrival(d.id, pi.InPort, f)
			return
		}
		if pi.Packet != nil {
			c.HandlePacketIn(d.id, pi.InPort, pi.Packet)
		}
	case southbound.TypePortStatus:
		ps, ok := m.Body.(southbound.PortStatus)
		if !ok {
			return
		}
		c.HandlePortStatus(d.id, ps.Port, ps.Up)
	}
}

// timerPool recycles request timers so each synchronous round trip stops
// and reuses its timer instead of leaking a live RequestTimeout-long timer
// into the runtime per call (the cost of the old time.After pattern at 10×
// event rates).
var timerPool sync.Pool

func getTimer(dur time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(dur)
		return t
	}
	return time.NewTimer(dur)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// observeRTTLocked folds one round-trip sample into the Jacobson/Karels
// estimator (srtt gain 1/8, rttvar gain 1/4); caller holds mu.
func (d *ConnDevice) observeRTTLocked(sample time.Duration) {
	if sample < 0 {
		return
	}
	if d.rttSamples == 0 {
		d.srtt = sample
		d.rttvar = sample / 2
	} else {
		diff := d.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		d.rttvar += (diff - d.rttvar) / 4
		d.srtt += (sample - d.srtt) / 8
	}
	d.rttSamples++
	connRTTSamples.Inc()
	connRTTObserved.Observe(sample)
}

// RTTEstimate reports the device's smoothed RTT, mean deviation, and the
// number of samples folded in so far (all zero before the first reply).
func (d *ConnDevice) RTTEstimate() (srtt, rttvar time.Duration, samples int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.srtt, d.rttvar, d.rttSamples
}

// rtoLocked computes the current fence attempt timeout: RequestTimeout
// until the first sample, then srtt + 4·rttvar (Jacobson/Karels) clamped
// to [MinRTO, RequestTimeout]; fence retries back off exponentially from
// it. On a continent-scale WAN any constant is either hopelessly
// conservative (5s stalls behind a single lost reply) or spuriously
// aggressive (2ms jitter trips a 5ms constant); the estimator tracks the
// channel. Samples obey Karn's rule: retransmitted fences never feed the
// estimator. Only fences adapt: a spurious fence fire costs one
// retransmission, while a single-shot synchronous request has no retry
// path, so those stay bounded by the RequestTimeout ceiling (a large
// fragmented transfer outruns an RTO sized from small-frame samples).
// Caller holds mu.
func (d *ConnDevice) rtoLocked() time.Duration {
	if d.rttSamples == 0 {
		return d.RequestTimeout
	}
	rto := d.srtt + 4*d.rttvar
	if rto < d.MinRTO {
		rto = d.MinRTO
	}
	if rto > d.RequestTimeout {
		rto = d.RequestTimeout
	}
	return rto
}

// request performs one synchronous round-trip bounded by the
// RequestTimeout ceiling, not the adaptive RTO: a single-shot request
// has no retransmit path, so a deadline that fires early (e.g. on a
// multi-fragment transfer that takes longer than small-frame RTT
// samples predict) is an unrecoverable failure rather than a retry.
func (d *ConnDevice) request(m southbound.Msg) (southbound.Msg, error) {
	d.mu.Lock()
	timeout := d.RequestTimeout
	d.mu.Unlock()
	return d.requestT(m, timeout)
}

// requestT performs one synchronous round-trip bounded by an explicit
// timeout. Successful round trips feed the RTT estimator.
func (d *ConnDevice) requestT(m southbound.Msg, timeout time.Duration) (southbound.Msg, error) {
	connSyncRoundTrips.Inc()
	x := d.xid.Add(1)
	m.Xid = x
	ch := make(chan southbound.Msg, 1)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return southbound.Msg{}, southbound.ErrClosed
	}
	d.pending[x] = ch
	d.mu.Unlock()
	start := time.Now() //softmow:allow determinism RTT measurement shapes timeout pacing only, never replayable state
	if err := d.conn.Send(m); err != nil {
		d.mu.Lock()
		delete(d.pending, x)
		d.mu.Unlock()
		return southbound.Msg{}, err
	}
	t := getTimer(timeout)
	defer putTimer(t)
	select {
	case reply, ok := <-ch:
		if !ok {
			return southbound.Msg{}, southbound.ErrClosed
		}
		d.mu.Lock()
		//softmow:allow determinism RTT measurement shapes timeout pacing only, never replayable state
		d.observeRTTLocked(time.Now().Sub(start))
		d.mu.Unlock()
		if reply.Type == southbound.TypeError {
			return reply, d.errorFrom(reply)
		}
		return reply, nil
	case <-t.C:
		d.mu.Lock()
		delete(d.pending, x)
		d.mu.Unlock()
		return southbound.Msg{}, fmt.Errorf("core: request to %s timed out", d.id)
	}
}

// Ping measures channel liveness with one echo round trip bounded by
// timeout (not the adaptive RTO: a liveness probe deciding suspicion
// wants the prober's deadline, not the transport's). A successful ping
// feeds the RTT estimator like any other reply.
func (d *ConnDevice) Ping(timeout time.Duration) error {
	_, err := d.requestT(southbound.Msg{Type: southbound.TypeEchoRequest,
		Body: southbound.Echo{Payload: "liveness"}}, timeout)
	return err
}

// Request performs one synchronous request round trip on the device's
// conn with a fresh transaction ID, returning the typed reply. It is the
// entry point for northbound pushes that ride a device channel — UE-state
// transfers to a remote child — without exposing the xid machinery.
func (d *ConnDevice) Request(m southbound.Msg) (southbound.Msg, error) { return d.request(m) }

// ID implements Device.
func (d *ConnDevice) ID() dataplane.DeviceID { return d.id }

// Features implements Device.
func (d *ConnDevice) Features() southbound.FeatureReply {
	reply, err := d.request(southbound.Msg{Type: southbound.TypeFeatureRequest, Body: southbound.FeatureRequest{}})
	if err != nil {
		return southbound.FeatureReply{Device: d.id, Kind: dataplane.KindSwitch}
	}
	fr, _ := reply.Body.(southbound.FeatureReply)
	return fr
}

// InstallRules implements Device: the rules ride one pipelined
// FlowModBatch (a lone rule, one FlowMod) fenced by a single barrier, so a
// whole per-device batch costs one synchronous round trip instead of one
// per rule. The agent applies the batch in order and stops at the first
// failure, so on error the device may hold a prefix of the batch — callers
// (flushBatch) roll the affected version back. Device-side refusals (e.g. a
// slave-role write) surface as errors.
func (d *ConnDevice) InstallRules(rules []dataplane.Rule) error {
	ch := make(chan error, 1)
	d.installRulesAsync(rules, func(err error) { ch <- err })
	return <-ch
}

// installRulesAsync enqueues the rules (batched when possible) and
// fences them, invoking cb with the outcome when the fence completes. cb
// runs on the device's pump or deadline goroutine and must not block or
// issue synchronous southbound I/O.
func (d *ConnDevice) installRulesAsync(rules []dataplane.Rule, cb func(error)) {
	switch len(rules) {
	case 0:
		cb(nil)
		return
	case 1:
		connFlowMods.Inc()
		d.modAsync(southbound.Msg{Type: southbound.TypeFlowMod,
			Body: southbound.FlowMod{Command: southbound.FlowAdd, Rule: rules[0]}}, cb)
		return
	}
	mods := make([]southbound.FlowMod, len(rules))
	for i, r := range rules {
		mods[i] = southbound.FlowMod{Command: southbound.FlowAdd, Rule: r}
	}
	connBatches.Inc()
	connFlowMods.Add(int64(len(rules)))
	d.modAsync(southbound.Msg{Type: southbound.TypeFlowModBatch,
		Body: southbound.FlowModBatch{Mods: mods}}, cb)
}

// removeRulesAsync enqueues one delete command and fences it, invoking cb
// when the fence completes. cb must not block.
func (d *ConnDevice) removeRulesAsync(cmd southbound.FlowModCommand, owner string, version int, cb func(error)) {
	connFlowMods.Inc()
	d.modAsync(southbound.Msg{Type: southbound.TypeFlowMod,
		Body: southbound.FlowMod{Command: cmd, Owner: owner, Version: version}}, cb)
}

// RemoveRules implements Device: one delete FlowMod and its fence.
func (d *ConnDevice) RemoveRules(cmd southbound.FlowModCommand, owner string, version int) error {
	ch := make(chan error, 1)
	d.removeRulesAsync(cmd, owner, version, func(err error) { ch <- err })
	return <-ch
}

// modAsync sends a modification (single FlowMod or a whole FlowModBatch)
// with a tracked transaction ID and fences it; cb fires exactly once with
// the operation's outcome. The agent processes a connection's messages in
// order, so an error reply for the mod is recorded before the fence's
// barrier reply is routed — the completion resolves mod errors without a
// read-after-fence race.
func (d *ConnDevice) modAsync(m southbound.Msg, cb func(error)) {
	x := d.xid.Add(1)
	m.Xid = x
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		cb(southbound.ErrClosed)
		return
	}
	d.mods[x] = nil
	d.mu.Unlock()
	if err := d.conn.Send(m); err != nil {
		d.mu.Lock()
		delete(d.mods, x)
		d.mu.Unlock()
		cb(err)
		return
	}
	d.fenceAsync(x, cb)
}

// fenceAsync registers a barrier completion covering modification modXid
// and sends the first barrier attempt. Timeouts and retries are driven by
// the deadline timer; each attempt re-keys the completion under a fresh
// barrier xid.
func (d *ConnDevice) fenceAsync(modXid uint32, cb func(error)) {
	connBarriers.Inc()
	bx := d.xid.Add(1)
	comp := &barrierComp{cb: cb, modXid: modXid}
	d.mu.Lock()
	if d.closed {
		delete(d.mods, modXid)
		d.mu.Unlock()
		cb(southbound.ErrClosed)
		return
	}
	timeout := d.rtoLocked()
	comp.sentAt = time.Now() //softmow:allow determinism fence pacing and RTT measurement, never feeds replayable state
	d.barriers[bx] = comp
	d.insertDeadlineLocked(dlEntry{comp: comp, xid: bx, at: comp.sentAt.Add(timeout)}, comp.sentAt)
	d.mu.Unlock()
	connRTTTimeout.Observe(timeout)
	if err := d.conn.Send(southbound.Msg{Type: southbound.TypeBarrierRequest, Xid: bx, Body: southbound.Barrier{}}); err != nil {
		if merr, ok := d.completeFence(bx, comp); ok {
			if merr == nil {
				merr = err
			}
			cb(merr)
		}
	}
}

// insertDeadlineLocked inserts e into the expiry-sorted deadline queue
// (adaptive timeouts and retry backoff make arrival order non-monotonic)
// and re-arms the deadline timer when e is the new head; caller holds mu.
// The common case — a stable RTO — appends at the tail and wakes nobody.
func (d *ConnDevice) insertDeadlineLocked(e dlEntry, now time.Time) {
	// Compact instead of growing once half the slice is popped slots, so
	// a steady stream of fences reuses one backing array.
	if d.dlHead > 0 && d.dlHead >= len(d.dl)/2 && len(d.dl) == cap(d.dl) {
		d.dl, d.dlHead = slices.Delete(d.dl, 0, d.dlHead), 0 // zeroes the vacated tail
	}
	d.dl = append(d.dl, e)
	live := d.dl[d.dlHead:]
	i := len(live) - 1
	if i > 0 && live[i-1].at.After(e.at) {
		i = sort.Search(i, func(j int) bool { return live[j].at.After(e.at) })
		copy(live[i+1:], live[i:])
		live[i] = e
	}
	if i == 0 {
		d.dlTimer.Reset(e.at.Sub(now))
	}
}

// completeFence removes the fence from the table iff it is still keyed by
// xid and owned by comp, consuming its mod error. It reports whether the
// caller now owns the completion (and must invoke cb exactly once).
func (d *ConnDevice) completeFence(xid uint32, comp *barrierComp) (error, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.barriers[xid]; !ok || cur != comp {
		return nil, false
	}
	delete(d.barriers, xid)
	return d.takeModErrLocked(comp), true
}

// onDeadline is dlTimer's callback: it expires what is due and re-arms
// the timer for the earliest live deadline (or leaves it unarmed when
// there is none), so fences that complete in time never wake anything. A
// callback that finds the device closed does nothing; one that does not
// is counted in loops before teardown can begin, so WaitStopped covers it.
func (d *ConnDevice) onDeadline() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.loops.Add(1)
	d.mu.Unlock()
	defer d.loops.Done()
	connDeadlineWakeups.Inc()
	d.fireDeadlines()
}

// fireDeadlines expires every due fence: attempts with retry budget left
// are re-keyed under a fresh barrier xid and their barrier resent; the
// rest fail with the fence-timeout error. Stale entries — fences already
// completed or re-keyed, whose xid snapshot no longer matches the barrier
// table — are dropped from the head whether due or not, so the timer is
// armed for the first deadline that can still fire and stays unarmed when
// there is none.
func (d *ConnDevice) fireDeadlines() {
	type resend struct {
		comp *barrierComp
		xid  uint32
	}
	var resends []resend
	var failed []*barrierComp
	d.mu.Lock()
	// Read under mu: callbacks can overlap, and one holding an older time
	// would re-arm the timer late.
	now := time.Now() //softmow:allow determinism fence timeout detection, never feeds replayable state
	for d.dlHead < len(d.dl) {
		e := d.dl[d.dlHead]
		comp, ok := d.barriers[e.xid]
		live := ok && comp == e.comp
		if live && e.at.After(now) {
			d.dlTimer.Reset(e.at.Sub(now))
			break
		}
		d.dl[d.dlHead] = dlEntry{}
		d.dlHead++
		if !live {
			continue
		}
		delete(d.barriers, e.xid)
		if comp.attempts < d.BarrierRetries && !d.closed {
			comp.attempts++
			// Karn's rule: a retransmitted fence's reply time is ambiguous
			// (it may answer either attempt), so it never feeds the
			// estimator.
			comp.sentAt = time.Time{}
			// Exponential backoff: each retry doubles the attempt timeout,
			// capped at the constant ceiling.
			backoff := d.rtoLocked() << uint(comp.attempts)
			if backoff > d.RequestTimeout {
				backoff = d.RequestTimeout
			}
			nx := d.xid.Add(1)
			d.barriers[nx] = comp
			d.insertDeadlineLocked(dlEntry{comp: comp, xid: nx, at: now.Add(backoff)}, now)
			resends = append(resends, resend{comp: comp, xid: nx})
		} else {
			d.takeModErrLocked(comp) //softmow:allow errdiscard timeout wins over any recorded mod error; the stash is drained so it cannot leak to a later fence
			failed = append(failed, comp)
		}
	}
	d.mu.Unlock()
	for _, r := range resends {
		connBarrierRetries.Inc()
		connBarriers.Inc()
		if err := d.conn.Send(southbound.Msg{Type: southbound.TypeBarrierRequest, Xid: r.xid, Body: southbound.Barrier{}}); err != nil {
			//softmow:allow errdiscard the send error is the authoritative failure; any stashed mod error died with the conn
			if _, ok := d.completeFence(r.xid, r.comp); ok {
				r.comp.cb(err)
			}
		}
	}
	for _, comp := range failed {
		comp.cb(fmt.Errorf("core: device %s: fence failed after %d attempts: %w",
			d.id, d.BarrierRetries+1, fmt.Errorf("core: request to %s timed out", d.id)))
	}
}

// EmitDiscovery implements Device: the frame rides a Packet-Out across the
// port's link and returns to the control plane on the far side.
func (d *ConnDevice) EmitDiscovery(port dataplane.PortID, f *discovery.Frame) error {
	return d.conn.Send(southbound.Msg{Type: southbound.TypePacketOut,
		Body: southbound.PacketOut{OutPort: port, Control: f}})
}

// Barrier fences all previously sent modifications synchronously.
func (d *ConnDevice) Barrier() error {
	connBarriers.Inc()
	_, err := d.request(southbound.Msg{Type: southbound.TypeBarrierRequest, Body: southbound.Barrier{}})
	return err
}

// SetRole requests a controller role on the device (§5.3.2's
// OFPCR_ROLE_EQUAL dance during region handover).
//
//softmow:allow testonly ROADMAP item 4: the wire §5.3 reconfiguration hands a region over with it
func (d *ConnDevice) SetRole(controller string, role southbound.Role) (southbound.Role, error) {
	reply, err := d.request(southbound.Msg{Type: southbound.TypeRoleRequest,
		Body: southbound.RoleRequest{Controller: controller, Role: role}})
	if err != nil {
		return 0, err
	}
	rr, ok := reply.Body.(southbound.RoleReply)
	if !ok {
		return 0, fmt.Errorf("core: malformed role reply %T", reply.Body)
	}
	return rr.Role, nil
}
