package northbound_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/northbound"
	"repro/internal/southbound"
)

// gate holds a switch agent's receive side while paused: a message the
// agent has read waits at the gate, and so does everything queued behind
// it.
type gate struct {
	mu sync.Mutex
	// open is closed on resume; nil while the gate is open. guarded by mu.
	open chan struct{}
}

func (g *gate) pause() {
	g.mu.Lock()
	if g.open == nil {
		g.open = make(chan struct{})
	}
	g.mu.Unlock()
}

func (g *gate) resume() {
	g.mu.Lock()
	if g.open != nil {
		close(g.open)
		g.open = nil
	}
	g.mu.Unlock()
}

func (g *gate) wait() {
	g.mu.Lock()
	ch := g.open
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// gatedConn is a switch agent's end of its pipe, behind a gate.
type gatedConn struct {
	southbound.Conn
	g *gate
}

func (c gatedConn) Recv() (southbound.Msg, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.g.wait()
	}
	return m, err
}

// gateSwitches re-attaches every leaf switch as a ConnDevice over a Pipe to
// a SwitchAgent behind its own gate. Fence timeouts are raised far above
// any pause a test makes, so a paused switch delays fences without failing
// them.
func (dt *distTree) gateSwitches(t *testing.T) {
	t.Helper()
	dt.gates = make(map[dataplane.DeviceID]*gate)
	dt.switches = make(map[dataplane.DeviceID]*core.ConnDevice)
	for _, leaf := range []*core.Controller{dt.l1, dt.l2} {
		for _, d := range leaf.Devices() {
			id := d.ID()
			g := &gate{}
			agent := southbound.NewSwitchAgent(dt.net, dt.net.Switch(id))
			// Deep enough for every message a test sends a paused switch,
			// so the leaf never blocks on a full pipe.
			a, b := southbound.Pipe(1024)
			go agent.Serve(gatedConn{Conn: b, g: g})
			dev, err := core.DialDevice(a, leaf.ID)
			if err != nil {
				t.Fatal(err)
			}
			dev.RequestTimeout, dev.MinRTO = time.Minute, time.Minute
			leaf.AttachDevice(dev)
			dt.gates[id], dt.switches[id] = g, dev
		}
	}
	t.Cleanup(func() {
		for _, g := range dt.gates {
			g.resume()
		}
		for _, d := range dt.switches {
			d.Close()
			d.WaitStopped()
		}
	})
}

// rawParent is L1 with its switches behind gates, attached through
// ParentConn over a Pipe whose parent end the test drives message by
// message. A reader forwards everything the child sends to msgs.
type rawParent struct {
	*distTree
	wire southbound.Conn
	msgs chan southbound.Msg
	// gbs, egress and border are G-switch ports of L1: the G-BS
	// attachment, the E-near egress, and the border port toward S3.
	gbs, egress, border dataplane.PortID
	xid                 uint32
}

func newRawParent(t *testing.T) *rawParent {
	t.Helper()
	dt := distLeaves(t, true)
	// Both the pipe and msgs hold more than any test sends or expects, so
	// neither side of the raw link blocks on the other.
	pc, cc := southbound.Pipe(1024)
	done := make(chan error, 1)
	var link *northbound.ParentConn
	go func() {
		var err error
		link, err = northbound.Connect(dt.l1, cc)
		done <- err
	}()
	if err := southbound.Handshake(pc, "root"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rp := &rawParent{distTree: dt, wire: pc, msgs: make(chan southbound.Msg, 1024)}
	reader := make(chan struct{})
	go func() {
		defer close(reader)
		for {
			m, err := pc.Recv()
			if err != nil {
				return
			}
			rp.msgs <- m
		}
	}()
	t.Cleanup(func() {
		link.Close()
		<-reader
	})
	for _, gp := range dt.l1.Abstraction().GSwitch.Ports {
		switch {
		case gp.GBS != "":
			rp.gbs = gp.ID
		case gp.External:
			rp.egress = gp.ID
		}
	}
	for _, l := range dt.net.Links() {
		switch {
		case l.A.Dev == "S2" && l.B.Dev == "S3":
			rp.border, _ = dt.l1.ExposedPortFor(l.A)
		case l.B.Dev == "S2" && l.A.Dev == "S3":
			rp.border, _ = dt.l1.ExposedPortFor(l.B)
		}
	}
	if rp.gbs == 0 || rp.egress == 0 || rp.border == 0 {
		t.Fatalf("fixture: gbs=%d egress=%d border=%d", rp.gbs, rp.egress, rp.border)
	}
	return rp
}

// classify is a virtual classification rule for owner: translated, it
// lands on S1 (the G-BS attachment) and S2 (the egress).
func (rp *rawParent) classify(owner string) dataplane.Rule {
	return dataplane.Rule{Priority: 10, Owner: owner, Version: 1,
		Match:   dataplane.Match{InPort: rp.gbs, MatchNoLabel: true, UE: owner, QoS: -1},
		Actions: []dataplane.Action{dataplane.Push(40), dataplane.Output(rp.egress)}}
}

// transit is a virtual label-transit rule for owner: translated, it lands
// on S2 alone.
func (rp *rawParent) transit(owner string) dataplane.Rule {
	return dataplane.Rule{Priority: 10, Owner: owner, Version: 1,
		Match:   dataplane.Match{InPort: rp.border, HasLabel: true, Label: 77, QoS: -1},
		Actions: []dataplane.Action{dataplane.Output(rp.egress)}}
}

// unroutable is a virtual rule the child refuses before installing
// anything: it outputs to a port the G-switch does not have.
func (rp *rawParent) unroutable(owner string) dataplane.Rule {
	r := rp.classify(owner)
	r.Actions = []dataplane.Action{dataplane.Output(999)}
	return r
}

// send writes one message with the next xid and returns the xid.
func (rp *rawParent) send(t *testing.T, typ southbound.MsgType, body interface{}) uint32 {
	t.Helper()
	rp.xid++
	if err := rp.wire.Send(southbound.Msg{Type: typ, Xid: rp.xid, Body: body}); err != nil {
		t.Fatal(err)
	}
	return rp.xid
}

func (rp *rawParent) mod(t *testing.T, fm southbound.FlowMod) uint32 {
	t.Helper()
	return rp.send(t, southbound.TypeFlowMod, fm)
}

func (rp *rawParent) barrier(t *testing.T) uint32 {
	t.Helper()
	return rp.send(t, southbound.TypeBarrierRequest, southbound.Barrier{})
}

// next returns the child's next message, failing after a second.
func (rp *rawParent) next(t *testing.T) southbound.Msg {
	t.Helper()
	select {
	case m := <-rp.msgs:
		return m
	case <-time.After(time.Second):
		t.Fatal("no message from the child within a second")
		return southbound.Msg{}
	}
}

// expect requires the child's next message to be typ with xid.
func (rp *rawParent) expect(t *testing.T, typ southbound.MsgType, xid uint32) southbound.Msg {
	t.Helper()
	m := rp.next(t)
	if m.Type != typ || m.Xid != xid {
		t.Fatalf("child sent %v xid %d, want %v xid %d", m.Type, m.Xid, typ, xid)
	}
	return m
}

// quiet requires the child to send nothing for a while.
func (rp *rawParent) quiet(t *testing.T) {
	t.Helper()
	select {
	case m := <-rp.msgs:
		t.Fatalf("child sent %v xid %d, want nothing yet", m.Type, m.Xid)
	case <-time.After(50 * time.Millisecond):
	}
}

// sync round-trips an echo: once it returns, the serve loop has handled
// every message sent before it.
func (rp *rawParent) sync(t *testing.T) {
	t.Helper()
	rp.expect(t, southbound.TypeEchoReply, rp.send(t, southbound.TypeEchoRequest, southbound.Echo{}))
}

func (rp *rawParent) pause(ids ...dataplane.DeviceID) {
	for _, id := range ids {
		rp.gates[id].pause()
	}
}

func (rp *rawParent) resume(ids ...dataplane.DeviceID) {
	for _, id := range ids {
		rp.gates[id].resume()
	}
}

// tags lists the sorted, deduplicated owner/version tags of the rules on
// the given switches.
func tags(net *dataplane.Network, sws ...dataplane.DeviceID) []string {
	var out []string
	for _, id := range sws {
		for _, r := range net.Switch(id).Table.Rules() {
			out = append(out, fmt.Sprintf("%s/v%d", r.Owner, r.Version))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func add(r dataplane.Rule) southbound.FlowMod {
	return southbound.FlowMod{Command: southbound.FlowAdd, Rule: r}
}

// TestParentConnFencesWithoutGoroutines: with the child's switches paused,
// 64 FlowMod+Barrier pairs are issued and fenced without a goroutine per
// mod or per barrier, and every fence completes once the switches resume.
func TestParentConnFencesWithoutGoroutines(t *testing.T) {
	rp := newRawParent(t)
	rp.pause("S1", "S2")
	rp.sync(t)
	base := runtime.NumGoroutine()
	const pairs = 64
	want := make(map[uint32]bool, pairs)
	for i := 0; i < pairs; i++ {
		rp.mod(t, add(rp.classify(fmt.Sprintf("o%d", i))))
		want[rp.barrier(t)] = true
	}
	rp.sync(t)
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines with %d fenced mods in flight, %d before", n, pairs, base)
	}
	rp.quiet(t)
	rp.resume("S1", "S2")
	for range pairs {
		m := rp.next(t)
		if m.Type != southbound.TypeBarrierReply || !want[m.Xid] {
			t.Fatalf("child sent %v xid %d, want an outstanding barrier reply", m.Type, m.Xid)
		}
		delete(want, m.Xid)
	}
	if got := rp.totalRules(); got != 2*pairs {
		t.Fatalf("%d rules installed, want %d", got, 2*pairs)
	}
	for i := 0; i < pairs; i++ {
		rp.mod(t, southbound.FlowMod{Command: southbound.FlowDeleteOwner, Owner: fmt.Sprintf("o%d", i)})
	}
	rp.expect(t, southbound.TypeBarrierReply, rp.barrier(t))
	if got := rp.totalRules(); got != 0 {
		t.Fatalf("%d rules left after deleting every owner", got)
	}
}

// TestParentConnErrorPrecedesBarrierReply: refused mods report on the wire
// in arrival order, before the reply of the barrier that fences them —
// one refused by a switch after its translation was issued, one refused
// by the translation itself. The child rolls nothing back: what landed
// stays until the parent's version-exact delete scrubs it.
func TestParentConnErrorPrecedesBarrierReply(t *testing.T) {
	rp := newRawParent(t)
	// As a slave L1 may not program S2, so the classification's S2 half is
	// refused while its S1 half lands.
	if _, err := rp.switches["S2"].SetRole(rp.l1.ID, southbound.RoleSlave); err != nil {
		t.Fatal(err)
	}
	rp.pause("S1", "S2")
	refusedLate := rp.mod(t, add(rp.classify("a")))
	refusedEarly := rp.mod(t, add(rp.unroutable("b")))
	fence := rp.barrier(t)
	rp.sync(t)
	rp.quiet(t)
	rp.resume("S1", "S2")
	if m := rp.expect(t, southbound.TypeError, refusedLate); !strings.Contains(m.Body.(southbound.Error).Message, "refused") {
		t.Fatalf("switch refusal reported as %q", m.Body.(southbound.Error).Message)
	}
	rp.expect(t, southbound.TypeError, refusedEarly)
	rp.expect(t, southbound.TypeBarrierReply, fence)
	if got := tags(rp.net, "S1"); len(got) != 1 || got[0] != "a/v1" {
		t.Fatalf("S1 holds %v after the refused translation, want the landed a/v1", got)
	}
	rp.mod(t, southbound.FlowMod{Command: southbound.FlowDeleteOwnerVersion, Owner: "a", Version: 1})
	rp.expect(t, southbound.TypeBarrierReply, rp.barrier(t))
	if got := rp.totalRules(); got != 0 {
		t.Fatalf("%d rules left after the parent's rollback", got)
	}
}

// TestParentConnEmptyBarrierRepliesAtOnce: a barrier with no mod before it
// fences nothing, so it replies while an earlier fence still waits on a
// paused switch.
func TestParentConnEmptyBarrierRepliesAtOnce(t *testing.T) {
	rp := newRawParent(t)
	rp.pause("S1", "S2")
	rp.mod(t, add(rp.classify("a")))
	held := rp.barrier(t)
	rp.expect(t, southbound.TypeBarrierReply, rp.barrier(t))
	rp.quiet(t)
	rp.resume("S1", "S2")
	rp.expect(t, southbound.TypeBarrierReply, held)
}

// TestParentConnLaterBarrierOvertakes: fences complete independently — a
// later barrier whose mods touch only a live switch replies before an
// earlier one whose mods wait on a paused switch.
func TestParentConnLaterBarrierOvertakes(t *testing.T) {
	rp := newRawParent(t)
	rp.pause("S1")
	rp.mod(t, add(rp.classify("slow")))
	slow := rp.barrier(t)
	rp.mod(t, add(rp.transit("fast")))
	rp.expect(t, southbound.TypeBarrierReply, rp.barrier(t))
	rp.quiet(t)
	rp.resume("S1")
	rp.expect(t, southbound.TypeBarrierReply, slow)
	if got := tags(rp.net, "S1", "S2"); len(got) != 2 || got[0] != "fast/v1" || got[1] != "slow/v1" {
		t.Fatalf("switches hold %v, want fast/v1 and slow/v1", got)
	}
}

// TestParentConnChildFailureRollsBackAcrossRegions is the wire twin of the
// in-process TestChildFailureRollsBackAcrossRegions: one switch in L2
// refuses the root's rules, each child reports its fence without rolling
// back, and the root's version-exact rollback — a FlowDeleteOwnerVersion
// over each ParentConn — scrubs every region. Meaningful under -race: the
// completions run on the leaves' switch pumps and the root's pumps.
func TestParentConnChildFailureRollsBackAcrossRegions(t *testing.T) {
	dt := buildDistOver(t, true)
	// S4 is L2's egress switch: as a slave L2 may not program it.
	if _, err := dt.switches["S4"].SetRole(dt.l2.ID, southbound.RoleSlave); err != nil {
		t.Fatal(err)
	}
	from, ok := dt.root.AttachOfGroup("gA")
	if !ok {
		t.Fatal("root has no gA attachment")
	}
	res, err := dt.root.Route(core.RouteRequest{From: from, Prefix: "pfxFar"})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Path.Devices(); len(got) != 2 {
		t.Fatalf("root route spans %v, want both leaves' G-switches", got)
	}
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", DstPrefix: "pfxFar", QoS: -1}
	for i := 0; i < 100; i++ {
		_, err := dt.root.SetupPathWithDemand(match, res.Path, 0)
		if err == nil || !strings.Contains(err.Error(), "refused") {
			t.Fatalf("iteration %d: setup through a refusing switch returned %v, want the refusal", i, err)
		}
		if n := dt.root.PathTableSize(); n != 0 {
			t.Fatalf("iteration %d: failed setup left %d path records", i, n)
		}
		if n := dt.totalRules(); n != 0 {
			t.Fatalf("iteration %d: %d rules survive the rollback", i, n)
		}
	}
}

// TestParentConnTreeLeavesNoOrphanRules drives delegated bearers, local
// bearers, inter-region handovers and detaches through a tree whose every
// link is a ParentConn or ConnDevice over a Pipe, and requires every rule
// on every switch to belong to a live path after each step — the deletes
// that reach a child go only where its translations went, so a device they
// missed would show here.
func TestParentConnTreeLeavesNoOrphanRules(t *testing.T) {
	dt := buildDistOver(t, true)
	ctrls := []*core.Controller{dt.root, dt.l1, dt.l2}
	check := func(step string) {
		t.Helper()
		if err := core.CheckNoOrphanRules(dt.net, ctrls); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	for i := 0; i < 8; i++ {
		ue := fmt.Sprintf("u%d", i)
		prefix := "pfxFar"
		if i%2 == 1 {
			prefix = "pfxNear"
		}
		if _, err := dt.l1.HandleBearerRequest(core.BearerRequest{UE: ue, BS: "b1", Prefix: interdomain.PrefixID(prefix)}); err != nil {
			t.Fatal(err)
		}
		check("bearer " + ue)
	}
	if dt.totalRules() == 0 {
		t.Fatal("no rules installed")
	}
	for i := 0; i < 8; i += 2 {
		ue := fmt.Sprintf("u%d", i)
		if err := dt.l1.Handover(ue, "gB", "b3"); err != nil {
			t.Fatal(err)
		}
		check("handover " + ue)
	}
	for i := 0; i < 8; i++ {
		ue := fmt.Sprintf("u%d", i)
		if err := dt.l1.Detach(ue); err != nil {
			t.Fatalf("detach %s: %v", ue, err)
		}
		check("detach " + ue)
	}
	if n := dt.totalRules(); n != 0 {
		t.Fatalf("%d rules left with every UE detached", n)
	}
}

// A child request completes exactly once. When the parent does not answer
// within RequestTimeout the timer completes it with the timeout, and the
// reply that arrives later is dropped. (The fixture is leak-checked: the
// stopped and fired timers leave no goroutine behind.)
func TestParentConnRequestTimeoutCompletesOnce(t *testing.T) {
	rp := newRawParent(t)
	link := rp.l1.ParentLinkRef().(*northbound.ParentConn)
	link.RequestTimeout = 50 * time.Millisecond
	var calls atomic.Int32
	errs := make(chan error, 2)
	if err := link.TeardownOwned("root", 7, func(err error) {
		calls.Add(1)
		errs <- err
	}); err != nil {
		t.Fatalf("TeardownOwned with a callback returned %v", err)
	}
	req := rp.next(t)
	if b, ok := req.Body.(southbound.NbTeardown); req.Type != southbound.TypeNbTeardown || !ok || b.Path != 7 {
		t.Fatalf("child sent %v %+v, want the teardown of path 7", req.Type, req.Body)
	}
	select {
	case err := <-errs:
		if err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("unanswered request completed with %v, want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unanswered request still pending 5s after a 50ms timeout")
	}
	if err := rp.wire.Send(southbound.Msg{Type: southbound.TypeNbAck, Xid: req.Xid, Body: southbound.NbAck{}}); err != nil {
		t.Fatal(err)
	}
	rp.sync(t) // the serve loop has handled the late reply
	if n := calls.Load(); n != 1 {
		t.Fatalf("request completed %d times, want once", n)
	}
	if err := link.Drain(time.Second); err != nil {
		t.Fatalf("timed-out request still counted in flight: %v", err)
	}
}

// Close completes every pending request once with ErrClosed, and a request
// made after Close completes at once the same way.
func TestParentConnCloseCompletesPending(t *testing.T) {
	rp := newRawParent(t)
	link := rp.l1.ParentLinkRef().(*northbound.ParentConn)
	link.RequestTimeout = 50 * time.Millisecond
	const n = 3
	var calls [n + 1]atomic.Int32
	errs := make(chan error, n+1)
	teardown := func(i int) {
		if err := link.TeardownOwned("root", core.PathID(i+1), func(err error) {
			calls[i].Add(1)
			errs <- err
		}); err != nil {
			t.Fatalf("TeardownOwned with a callback returned %v", err)
		}
	}
	for i := 0; i < n; i++ {
		teardown(i)
		rp.next(t) // the request is on the wire and pending
	}
	if err := link.Close(); err != nil {
		t.Fatal(err)
	}
	teardown(n)
	for i := 0; i <= n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, southbound.ErrClosed) {
				t.Fatalf("pending request completed with %v, want ErrClosed", err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%d of %d requests still pending after Close", n+1-i, n+1)
		}
	}
	time.Sleep(100 * time.Millisecond) // past RequestTimeout: a live timer would complete again
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("request %d completed %d times, want once", i, c)
		}
	}
}
