package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/discovery"
	"repro/internal/nib"
	"repro/internal/southbound"
)

// probeDev is a minimal single-port Device whose discovery frames loop
// straight back to the controller as arrivals at its peer — the in-test
// stand-in for a physical link.
type probeDev struct {
	id   dataplane.DeviceID
	ctrl *Controller
	peer dataplane.PortRef

	mu sync.Mutex
	// emits counts EmitDiscovery calls, guarded by mu.
	emits int
}

func (d *probeDev) ID() dataplane.DeviceID { return d.id }
func (d *probeDev) Features() (southbound.FeatureReply, error) {
	return southbound.FeatureReply{
		Device: d.id,
		Kind:   dataplane.KindSwitch,
		Ports:  []southbound.PortInfo{{ID: 1, Up: true}},
	}, nil
}
func (d *probeDev) InstallRules([]dataplane.Rule) error                      { return nil }
func (d *probeDev) RemoveRules(southbound.FlowModCommand, string, int) error { return nil }
func (d *probeDev) EmitDiscovery(port dataplane.PortID, f *discovery.Frame) error {
	d.mu.Lock()
	d.emits++
	d.mu.Unlock()
	if d.ctrl != nil && d.peer.Dev != "" {
		d.ctrl.HandleDiscoveryArrival(d.peer.Dev, d.peer.Port, f)
	}
	return nil
}

func (d *probeDev) emitCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.emits
}

// pingableDev adds the Pinger extension with a switchable outage.
type pingableDev struct {
	probeDev
	down atomic.Bool
}

func (d *pingableDev) Ping(time.Duration) error {
	if d.down.Load() {
		return errors.New("probe lost")
	}
	return nil
}

// TestLivenessSuspectAndRediscovery walks the full sOFTDP-style cycle:
// healthy probes, consecutive misses crossing SuspectAfter (links marked
// down), a healed channel triggering a targeted rediscovery that restores
// the link — without the unreachable peer ever being re-probed in full.
func TestLivenessSuspectAndRediscovery(t *testing.T) {
	c := NewController("L", 0, 0)
	a := &pingableDev{}
	a.id, a.ctrl, a.peer = "SA", c, dataplane.PortRef{Dev: "SB", Port: 1}
	b := &probeDev{id: "SB", ctrl: c, peer: dataplane.PortRef{Dev: "SA", Port: 1}}
	c.AttachDevice(a)
	c.AttachDevice(b)
	link := nib.Link{
		A:  dataplane.PortRef{Dev: "SA", Port: 1},
		B:  dataplane.PortRef{Dev: "SB", Port: 1},
		Up: true,
	}
	c.NIB.PutLink(link)

	p := NewLivenessProber(c, LivenessConfig{
		Timeout:      10 * time.Millisecond,
		SuspectAfter: 2,
	})

	p.ProbeOnce()
	if s := p.Stats(); s.Probes != 1 || s.Misses != 0 {
		t.Fatalf("healthy round: %+v (only SA implements Pinger)", s)
	}

	a.down.Store(true)
	p.ProbeOnce()
	if l, ok := c.NIB.LinkByKey(link.Key()); !ok || !l.Up {
		t.Fatalf("one miss must not mark the link down: %+v ok=%v", l, ok)
	}
	if len(p.Suspects()) != 0 {
		t.Fatalf("suspect after a single miss: %v", p.Suspects())
	}

	p.ProbeOnce() // second consecutive miss crosses SuspectAfter
	if got := p.Suspects(); len(got) != 1 || got[0] != "SA" {
		t.Fatalf("suspects = %v, want [SA]", got)
	}
	if l, ok := c.NIB.LinkByKey(link.Key()); !ok || l.Up {
		t.Fatalf("suspect device's link still up: %+v ok=%v", l, ok)
	}
	if s := p.Stats(); s.Suspects != 1 || s.Misses != 2 {
		t.Fatalf("after suspicion: %+v", s)
	}

	p.ProbeOnce() // third miss: already suspect, no re-declaration
	if s := p.Stats(); s.Suspects != 1 {
		t.Fatalf("suspect re-declared: %+v", s)
	}

	aEmits, bEmits := a.emitCount(), b.emitCount()
	a.down.Store(false)
	p.ProbeOnce()
	if got := p.Suspects(); len(got) != 0 {
		t.Fatalf("recovered device still suspect: %v", got)
	}
	if s := p.Stats(); s.Rediscoveries != 1 {
		t.Fatalf("rediscoveries = %d, want 1", s.Rediscoveries)
	}
	if a.emitCount() <= aEmits {
		t.Fatal("recovery did not re-emit discovery from the healed device")
	}
	if b.emitCount() != bEmits {
		t.Fatal("targeted rediscovery leaked into unrelated devices (full refresh)")
	}
	if l, ok := c.NIB.LinkByKey(link.Key()); !ok || !l.Up {
		t.Fatalf("rediscovery did not restore the link: %+v ok=%v", l, ok)
	}
}
