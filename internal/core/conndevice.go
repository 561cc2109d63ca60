package core

import (
	"errors"
	"fmt"
	"sync"
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
// device's only long-lived goroutine. Every request that awaits a reply —
// a fence's barrier, a feature, echo, role or UE-state request — is an
// entry of one southbound.Inflight table, completed when the reply
// arrives, when its deadline passes (a timer callback, not a parked
// goroutine), or when the connection dies. Fences retry under a fresh xid
// with backoff; the other requests are single-shot, bounded by
// RequestTimeout. The synchronous Device methods are thin waits over the
// same completions, so callers that can overlap fences (the batch
// pipeline) share the conn with callers that cannot.
type ConnDevice struct {
	id   dataplane.DeviceID
	conn southbound.Conn
	// inflight holds every request awaiting its reply.
	inflight *southbound.Inflight

	mu sync.Mutex
	// ctrl is the attached controller, guarded by mu.
	ctrl *Controller
	// barriers maps each fenced modification's xid to the fence covering
	// it until that fence completes, so the device's error reply to the
	// modification reaches the fence; guarded by mu.
	barriers map[uint32]*fence
	// srtt is the smoothed round-trip estimate (Jacobson/Karels EWMA,
	// gain 1/8), guarded by mu.
	srtt time.Duration
	// rttvar is the smoothed mean RTT deviation (gain 1/4), guarded by mu.
	rttvar time.Duration
	// rttSamples counts accepted RTT observations, guarded by mu.
	rttSamples int64
	// backlog holds events that arrived during the feature handshake,
	// before any controller was attached; setController replays them.
	// guarded by mu.
	backlog []southbound.Msg
	// peerHandler receives child-originated northbound requests (messages
	// whose type reports PeerRequest) when the far end of this conn is a
	// child controller's RecA agent rather than a switch. guarded by mu.
	peerHandler func(southbound.Msg)

	// loops tracks the pump goroutine; peerWG tracks in-flight
	// peer-request handler goroutines. WaitStopped waits on both, and on
	// the inflight table's timer callback, so teardown paths (and
	// leak-checked tests) can prove the device left nothing running.
	loops  sync.WaitGroup
	peerWG sync.WaitGroup

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

// fence is one outstanding fenced modification: the callback to fire
// exactly once, the modification xid it covers and the device's refusal
// of it, the retry budget consumed, and when the current barrier went on
// the wire (for RTT sampling; zero after a retransmit per Karn's rule).
// It is the barrier's Waiter in the inflight table, and owns the retry
// policy the table leaves to it.
type fence struct {
	d      *ConnDevice
	cb     func(error)
	mod    uint32
	sentAt time.Time
	// attempts and modErr are read and written under d.mu.
	attempts int
	modErr   error
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
		inflight:       southbound.NewInflight(conn, connDeadlineWakeups),
		barriers:       make(map[uint32]*fence),
		RequestTimeout: 5 * time.Second,
		BarrierRetries: 2,
		MinRTO:         5 * time.Millisecond,
	}
	if wd, ok := conn.(southbound.WriteDeadliner); ok {
		wd.SetWriteTimeout(d.RequestTimeout)
	}
	// Learn the device ID via an initial feature request, synchronously,
	// before the pump starts (no concurrent readers yet).
	x := d.inflight.NextXid()
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

// Drain waits for every in-flight fence and synchronous request on this
// device to complete, or for the timeout to elapse. A region process calls
// it on SIGTERM so a cluster teardown never strands a half-installed batch
// behind a closed connection.
func (d *ConnDevice) Drain(timeout time.Duration) error {
	if err := d.inflight.Drain(timeout); err != nil {
		return fmt.Errorf("core: device %s: %w", d.id, err)
	}
	return nil
}

// Close tears down the connection and completes every outstanding fence
// and request with ErrClosed. It does not wait for the pump and deadline
// goroutines — controller event handlers run on the pump, so a Close
// issued from one would self-deadlock; callers that must prove quiescence
// follow up with WaitStopped from a different goroutine.
func (d *ConnDevice) Close() error {
	d.inflight.Close()
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
	d.inflight.Wait()
}

func (d *ConnDevice) pump() {
	defer d.loops.Done()
	// A dead connection fails all outstanding work: retrying fences into a
	// closed conn cannot succeed and would stall rollback of the other
	// path devices behind BarrierRetries×RequestTimeout of dead air.
	defer d.inflight.Close()
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
		// Reply routing. Only a reply carrying a fence's CURRENT barrier xid
		// completes it; replies to timed-out attempts complete nothing.
		if m.Xid != 0 {
			if d.inflight.Reply(m.Xid, m) {
				continue
			}
			// Fenced modification? Stash its error for the covering fence.
			d.mu.Lock()
			f, ok := d.barriers[m.Xid]
			if ok && m.Type == southbound.TypeError {
				f.modErr = d.modRefused(m)
			}
			d.mu.Unlock()
			if ok {
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
	return min(max(d.srtt+4*d.rttvar, d.MinRTO), d.RequestTimeout)
}

// request performs one synchronous round trip bounded by timeout, not
// the adaptive RTO: a single-shot request has no retransmit path, so a
// deadline that fires early (e.g. on a multi-fragment transfer that takes
// longer than small-frame RTT samples predict) is an unrecoverable failure
// rather than a retry. Successful round trips feed the RTT estimator.
func (d *ConnDevice) request(m southbound.Msg, timeout time.Duration) (southbound.Msg, error) {
	connSyncRoundTrips.Inc()
	start := time.Now() //softmow:allow determinism RTT measurement shapes timeout pacing only, never replayable state
	reply, err := d.inflight.Call(m, start.Add(timeout))
	if err != nil {
		return southbound.Msg{}, fmt.Errorf("core: request to %s: %w", d.id, err)
	}
	d.mu.Lock()
	d.observeRTTLocked(time.Since(start))
	d.mu.Unlock()
	if reply.Type == southbound.TypeError {
		return reply, d.errorFrom(reply)
	}
	return reply, nil
}

// Ping measures channel liveness with one echo round trip bounded by
// timeout (not the adaptive RTO: a liveness probe deciding suspicion
// wants the prober's deadline, not the transport's). A successful ping
// feeds the RTT estimator like any other reply.
func (d *ConnDevice) Ping(timeout time.Duration) error {
	_, err := d.request(southbound.Msg{Type: southbound.TypeEchoRequest,
		Body: southbound.Echo{Payload: "liveness"}}, timeout)
	return err
}

// Request performs one synchronous request round trip on the device's
// conn with a fresh transaction ID, returning the typed reply. It is the
// entry point for northbound pushes that ride a device channel — UE-state
// transfers to a remote child — without exposing the xid machinery.
func (d *ConnDevice) Request(m southbound.Msg) (southbound.Msg, error) {
	return d.request(m, d.RequestTimeout)
}

// ID implements Device.
func (d *ConnDevice) ID() dataplane.DeviceID { return d.id }

// Features implements Device.
func (d *ConnDevice) Features() (southbound.FeatureReply, error) {
	reply, err := d.Request(southbound.Msg{Type: southbound.TypeFeatureRequest, Body: southbound.FeatureRequest{}})
	if err != nil {
		return southbound.FeatureReply{}, err
	}
	fr, ok := reply.Body.(southbound.FeatureReply)
	if !ok {
		return southbound.FeatureReply{}, fmt.Errorf("core: malformed feature reply %T", reply.Body)
	}
	return fr, nil
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
	f := &fence{d: d, cb: cb, mod: d.inflight.NextXid()}
	m.Xid = f.mod
	d.mu.Lock()
	rto := d.rtoLocked()
	d.barriers[f.mod] = f
	d.mu.Unlock()
	if err := d.conn.Send(m); err != nil {
		f.Done(southbound.Msg{}, err)
		return
	}
	connRTTTimeout.Observe(rto)
	f.sentAt = time.Now() //softmow:allow determinism fence pacing and RTT measurement, never feeds replayable state
	f.send(f.sentAt.Add(rto))
}

// send puts the fence's barrier on the wire as a new entry of the
// inflight table, due by deadline.
func (f *fence) send(deadline time.Time) {
	connBarriers.Inc()
	f.d.inflight.Request(southbound.Msg{Type: southbound.TypeBarrierRequest, Body: southbound.Barrier{}}, f, deadline)
}

// Done implements southbound.Waiter. A timed-out attempt with retry budget
// left goes out again under a fresh barrier xid, its timeout doubled
// (capped at RequestTimeout); otherwise the fence completes: with the
// device's refusal of the modification if it sent one, else with the
// outcome the table reports.
func (f *fence) Done(m southbound.Msg, err error) {
	d := f.d
	d.mu.Lock()
	if errors.Is(err, southbound.ErrTimeout) && f.attempts < d.BarrierRetries {
		f.attempts++
		// Karn's rule: a retransmitted fence's reply time is ambiguous (it
		// may answer either attempt), so it never feeds the estimator.
		f.sentAt = time.Time{}
		backoff := min(d.rtoLocked()<<uint(f.attempts), d.RequestTimeout)
		d.mu.Unlock()
		connBarrierRetries.Inc()
		f.send(time.Now().Add(backoff)) //softmow:allow determinism fence pacing only, never feeds replayable state
		return
	}
	if err == nil && f.attempts == 0 && !f.sentAt.IsZero() {
		d.observeRTTLocked(time.Since(f.sentAt))
	}
	delete(d.barriers, f.mod)
	ferr := f.modErr
	d.mu.Unlock()
	switch {
	case errors.Is(err, southbound.ErrTimeout):
		// A timeout wins over any recorded mod error.
		ferr = fmt.Errorf("core: device %s: fence failed after %d attempts: %w", d.id, f.attempts+1, err)
	case errors.Is(err, southbound.ErrClosed):
		ferr = err
	case ferr == nil && err != nil:
		ferr = err
	case ferr == nil && m.Type == southbound.TypeError:
		ferr = d.errorFrom(m)
	}
	f.cb(ferr)
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
	_, err := d.Request(southbound.Msg{Type: southbound.TypeBarrierRequest, Body: southbound.Barrier{}})
	return err
}

// SetRole requests a controller role on the device (§5.3.2's
// OFPCR_ROLE_EQUAL dance during region handover).
//
//softmow:allow testonly ROADMAP item 4: the wire §5.3 reconfiguration hands a region over with it
func (d *ConnDevice) SetRole(controller string, role southbound.Role) (southbound.Role, error) {
	reply, err := d.Request(southbound.Msg{Type: southbound.TypeRoleRequest,
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
