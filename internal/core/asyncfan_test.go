package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/pathimpl"
	"repro/internal/southbound"
)

// A parent programs its children through the same asynchronous fan-out as
// its wire-attached switches: a child's logicalDevice translates the rules
// into one batch, issues it through the child's ConnDevices, and reports
// when the last fence resolves, with no goroutine per child.

// attachOverPipes re-attaches every switch of the Fig. 5 leaves through a
// protocol agent over an in-process pipe, so the root's flushes reach the
// switches through the ConnDevice fence pipeline. wrap, when non-nil,
// wraps the controller end of each switch's pipe.
func (f *fig5) attachOverPipes(t *testing.T, wrap func(dataplane.DeviceID, southbound.Conn) southbound.Conn) map[dataplane.DeviceID]*ConnDevice {
	t.Helper()
	out := make(map[dataplane.DeviceID]*ConnDevice)
	for _, leaf := range f.h.Leaves {
		for _, d := range leaf.Devices() {
			id := d.ID()
			agent := southbound.NewSwitchAgent(f.net, f.net.Switch(id))
			a, b := southbound.Pipe(64)
			go agent.Serve(b)
			var conn southbound.Conn = a
			if wrap != nil {
				conn = wrap(id, a)
			}
			dev, err := DialDevice(conn, leaf.ID)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dev.Close() })
			leaf.AttachDevice(dev)
			out[id] = dev
		}
	}
	return out
}

// rulesNotOwnedBy lists every installed rule whose owner is not keep.
func (f *fig5) rulesNotOwnedBy(keep string) []dataplane.Rule {
	var out []dataplane.Rule
	for _, sw := range f.net.Switches() {
		for _, r := range sw.Table.Rules() {
			if r.Owner != keep {
				out = append(out, *r)
			}
		}
	}
	return out
}

// A switch in one region refuses the root's rules: the child reports the
// refused fence without rolling back, and the root's version-exact
// rollback scrubs every region, so no rule of the owner survives anywhere.
// Meaningful under -race: the completions chain from the leaves' ConnDevice
// receive goroutines into the root's join, and the next setup starts while
// those goroutines are still live.
func TestChildFailureRollsBackAcrossRegions(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	devs := f.attachOverPipes(t, nil)
	// S4 is L2's egress switch: as a slave L2 may not program it.
	if _, err := devs["S4"].SetRole(f.l2.ID, southbound.RoleSlave); err != nil {
		t.Fatal(err)
	}
	from, ok := f.root.AttachOfGroup("gA")
	if !ok {
		t.Fatal("root has no gA attachment")
	}
	res, err := f.root.Route(RouteRequest{From: from, Prefix: "pfxFar"})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Path.Devices(); len(got) != 2 {
		t.Fatalf("root route spans %v, want both leaves' G-switches", got)
	}
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", DstPrefix: "pfxFar", QoS: -1}
	for i := 0; i < 200; i++ {
		_, err := f.root.SetupPathWithDemand(match, res.Path, 0)
		if err == nil || !strings.Contains(err.Error(), "refused") {
			t.Fatalf("iteration %d: setup through a refusing switch returned %v, want the refusal", i, err)
		}
		if n := f.root.PathTableSize(); n != 0 {
			t.Fatalf("iteration %d: failed setup left %d path records", i, n)
		}
		if left := f.rulesNotOwnedBy(""); len(left) != 0 {
			t.Fatalf("iteration %d: %d rules survive the rollback, first %+v", i, len(left), left[0])
		}
	}
	// Each rollback deleted the only version its children translated, so
	// no child keeps a delete set for an owner that no longer exists.
	for _, leaf := range f.h.Leaves {
		leaf.mu.Lock()
		n := len(leaf.translated)
		leaf.mu.Unlock()
		if n != 0 {
			t.Fatalf("%s keeps the delete sets of %d rolled-back owners", leaf.ID, n)
		}
	}
}

// holdbackConn holds barrier replies back from the controller, once armed,
// until a given number of flow-programming messages have gone out on the
// conn — or a second has passed, which it records as early.
type holdbackConn struct {
	southbound.Conn
	mu sync.Mutex
	// left counts the flow-programming messages still to go out before
	// replies flow again; ready closes when it reaches zero. guarded by mu.
	left  int
	ready chan struct{}
	// early records a barrier reply released by the timeout, guarded by mu.
	early bool
}

func (h *holdbackConn) arm(mods int) {
	h.mu.Lock()
	h.left, h.ready, h.early = mods, make(chan struct{}), false
	h.mu.Unlock()
}

func (h *holdbackConn) Send(m southbound.Msg) error {
	if m.Type == southbound.TypeFlowMod || m.Type == southbound.TypeFlowModBatch {
		h.mu.Lock()
		if h.ready != nil && h.left > 0 {
			if h.left--; h.left == 0 {
				close(h.ready)
			}
		}
		h.mu.Unlock()
	}
	return h.Conn.Send(m)
}

func (h *holdbackConn) Recv() (southbound.Msg, error) {
	m, err := h.Conn.Recv()
	if err != nil || m.Type != southbound.TypeBarrierReply {
		return m, err
	}
	h.mu.Lock()
	ready := h.ready
	h.mu.Unlock()
	if ready == nil {
		return m, nil
	}
	select {
	case <-ready:
	case <-time.After(time.Second):
		h.mu.Lock()
		h.early = true
		h.mu.Unlock()
	}
	return m, nil
}

func (h *holdbackConn) releasedEarly() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.early
}

// The ancestor of an inter-region handover installs the new path and the
// transfer path together: both reach S3, the switch the two share, before
// S3 answers the first barrier. A failing new path takes the installed
// transfer path down with it and leaves no record.
func TestInterRegionHandoverOverlapsInstalls(t *testing.T) {
	setup := func(t *testing.T) (*fig5, map[dataplane.DeviceID]*ConnDevice, *holdbackConn, *UERecord) {
		f := buildFig5(t, pathimpl.ModeSwap)
		var hold *holdbackConn
		devs := f.attachOverPipes(t, func(id dataplane.DeviceID, c southbound.Conn) southbound.Conn {
			if id != "S3" {
				return c
			}
			hold = &holdbackConn{Conn: c}
			return hold
		})
		// The held barrier must not time out into a retry while it waits.
		devs["S3"].MinRTO, devs["S3"].RequestTimeout = 10*time.Second, 10*time.Second
		rec, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u1", BS: "b1", Prefix: "pfxFar"})
		if err != nil {
			t.Fatal(err)
		}
		if rec.HandledBy != PathOwner(f.root) {
			t.Fatalf("precondition: path owned by %s, want the root", rec.HandledBy.OwnerID())
		}
		return f, devs, hold, rec
	}

	t.Run("both installs in flight at once", func(t *testing.T) {
		f, _, hold, _ := setup(t)
		hold.arm(2)
		if err := f.l1.Handover("u1", "gB", "b3"); err != nil {
			t.Fatal(err)
		}
		if hold.releasedEarly() {
			t.Fatal("S3 answered a barrier before the second install reached it: the installs ran one after the other")
		}
		row, _ := f.l1.UE("u1")
		if row.BS != "b3" || row.HandledBy != PathOwner(f.root) {
			t.Fatalf("row after handover: %+v", row)
		}
		if n := f.root.PathTableSize(); n != 1 {
			t.Fatalf("root holds %d path records, want the new path alone", n)
		}
		rec, _ := f.root.Path(row.PathID)
		if left := f.rulesNotOwnedBy(rec.Owner); len(left) != 0 {
			t.Fatalf("%d rules besides the new path's, first %+v", len(left), left[0])
		}
		pkt := &dataplane.Packet{UE: "u1", DstPrefix: "pfxFar"}
		if res, _ := f.net.Inject("S3", f.radioB.Port, pkt); res.Disposition != dataplane.DispEgressed {
			t.Fatalf("new path does not forward: %v", res.Disposition)
		}
	})

	t.Run("failing new path", func(t *testing.T) {
		f, devs, hold, before := setup(t)
		old, _ := f.root.Path(before.PathID)
		// S4 is the new path's egress switch.
		if _, err := devs["S4"].SetRole(f.l2.ID, southbound.RoleSlave); err != nil {
			t.Fatal(err)
		}
		hold.arm(2)
		if err := f.l1.Handover("u1", "gB", "b3"); err == nil || !strings.Contains(err.Error(), "refused") {
			t.Fatalf("handover onto a refusing switch returned %v, want the refusal", err)
		}
		if hold.releasedEarly() {
			t.Fatal("S3 answered a barrier before the second install reached it")
		}
		if row, _ := f.l1.UE("u1"); row != *before {
			t.Fatalf("row changed by a failed handover: %+v, was %+v", row, *before)
		}
		if n := f.root.PathTableSize(); n != 1 {
			t.Fatalf("root holds %d path records, want the old path alone", n)
		}
		if left := f.rulesNotOwnedBy(old.Owner); len(left) != 0 {
			t.Fatalf("%d rules besides the old path's survive, first %+v", len(left), left[0])
		}
		if n := f.root.StatsSnapshot().InterRegionHandovers; n != 0 {
			t.Fatalf("failed handover counted: %d", n)
		}
	})
}
