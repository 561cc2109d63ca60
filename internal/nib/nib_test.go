package nib

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dataplane"
)

func dev(id dataplane.DeviceID, kind dataplane.DeviceKind) Device {
	return Device{ID: id, Kind: kind, Ports: []PortRecord{{ID: 1, Up: true}}}
}

func link(a dataplane.DeviceID, ap dataplane.PortID, b dataplane.DeviceID, bp dataplane.PortID) Link {
	return Link{
		A: dataplane.PortRef{Dev: a, Port: ap}, B: dataplane.PortRef{Dev: b, Port: bp},
		Latency: 5 * time.Millisecond, Bandwidth: 1000, Up: true,
	}
}

func TestPutAndGetDevice(t *testing.T) {
	n := New()
	n.PutDevice(dev("SW1", dataplane.KindSwitch))
	d, ok := n.Device("SW1")
	if !ok || d.Kind != dataplane.KindSwitch {
		t.Fatalf("device = %+v ok=%v", d, ok)
	}
	if _, ok := n.Device("missing"); ok {
		t.Fatal("missing device should not be found")
	}
	if len(n.Devices(dataplane.KindUnknown)) != 1 {
		t.Fatalf("NumDevices = %d", len(n.Devices(dataplane.KindUnknown)))
	}
}

func TestPutDeviceCopies(t *testing.T) {
	n := New()
	d := dev("SW1", dataplane.KindSwitch)
	d.Fabric = dataplane.NewVFabric()
	d.Fabric.Set(1, 2, dataplane.PathMetrics{Bandwidth: 10, Reachable: true})
	n.PutDevice(d)
	d.Ports[0].Up = false
	d.Fabric.Set(1, 2, dataplane.PathMetrics{Bandwidth: 99, Reachable: true})
	got, _ := n.Device("SW1")
	if !got.Ports[0].Up {
		t.Fatal("NIB must copy ports")
	}
	if m, _ := got.Fabric.Get(1, 2); m.Bandwidth != 10 {
		t.Fatal("NIB must copy fabric")
	}
}

func TestDevicesFilterByKind(t *testing.T) {
	n := New()
	n.PutDevice(dev("SW1", dataplane.KindSwitch))
	n.PutDevice(dev("GS1", dataplane.KindGSwitch))
	n.PutDevice(dev("SW0", dataplane.KindSwitch))
	all := n.Devices(dataplane.KindUnknown)
	if len(all) != 3 {
		t.Fatalf("all = %d", len(all))
	}
	if all[0].ID != "GS1" {
		t.Fatalf("expected sorted order, got %v", all[0].ID)
	}
	sws := n.Devices(dataplane.KindSwitch)
	if len(sws) != 2 {
		t.Fatalf("switches = %d", len(sws))
	}
}

func TestLinkKeyNormalization(t *testing.T) {
	a := dataplane.PortRef{Dev: "B", Port: 2}
	b := dataplane.PortRef{Dev: "A", Port: 9}
	if NewLinkKey(a, b) != NewLinkKey(b, a) {
		t.Fatal("link keys must be orientation-independent")
	}
	// same device, different ports
	c := dataplane.PortRef{Dev: "A", Port: 1}
	if NewLinkKey(b, c) != NewLinkKey(c, b) {
		t.Fatal("same-device normalization")
	}
}

func TestPutLinkAndLookup(t *testing.T) {
	n := New()
	l := link("A", 1, "B", 2)
	n.PutLink(l)
	got, ok := n.LinkByKey(NewLinkKey(
		dataplane.PortRef{Dev: "B", Port: 2}, dataplane.PortRef{Dev: "A", Port: 1}))
	if !ok || got.Latency != 5*time.Millisecond {
		t.Fatalf("link lookup: %+v %v", got, ok)
	}
	if n.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d", n.NumLinks())
	}
}

func TestRemoveDeviceCascadesLinks(t *testing.T) {
	n := New()
	n.PutDevice(dev("A", dataplane.KindSwitch))
	n.PutDevice(dev("B", dataplane.KindSwitch))
	n.PutDevice(dev("C", dataplane.KindSwitch))
	n.PutLink(link("A", 1, "B", 1))
	n.PutLink(link("B", 2, "C", 1))
	n.RemoveDevice("B")
	if n.NumLinks() != 0 {
		t.Fatalf("links touching removed device must go: %d", n.NumLinks())
	}
	if len(n.Devices(dataplane.KindUnknown)) != 2 {
		t.Fatalf("devices = %d", len(n.Devices(dataplane.KindUnknown)))
	}
}

func TestLinksOf(t *testing.T) {
	n := New()
	n.PutLink(link("A", 1, "B", 1))
	n.PutLink(link("B", 2, "C", 1))
	n.PutLink(link("C", 2, "D", 1))
	ls := n.LinksOf("B")
	if len(ls) != 2 {
		t.Fatalf("LinksOf(B) = %d", len(ls))
	}
}

func TestSubscriptions(t *testing.T) {
	n := New()
	var events []Event
	cancel := n.Subscribe(func(e Event) { events = append(events, e) })
	n.PutDevice(dev("A", dataplane.KindSwitch))
	n.PutLink(link("A", 1, "B", 1))
	n.RemoveLink(NewLinkKey(dataplane.PortRef{Dev: "A", Port: 1}, dataplane.PortRef{Dev: "B", Port: 1}))
	n.RemoveDevice("A")
	want := []EventKind{EvDeviceAdded, EvLinkAdded, EvLinkRemoved, EvDeviceRemoved}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i, e := range events {
		if e.Kind != want[i] {
			t.Fatalf("event %d = %v want %v", i, e.Kind, want[i])
		}
	}
	cancel()
	n.PutDevice(dev("Z", dataplane.KindSwitch))
	if len(events) != len(want) {
		t.Fatal("cancelled subscriber still notified")
	}
}

func TestRemoveMissingNoEvents(t *testing.T) {
	n := New()
	count := 0
	n.Subscribe(func(Event) { count++ })
	n.RemoveDevice("ghost")
	n.RemoveLink(LinkKey{})
	if count != 0 {
		t.Fatalf("phantom events: %d", count)
	}
}

func TestSnapshotRestore(t *testing.T) {
	n := New()
	n.PutDevice(dev("A", dataplane.KindSwitch))
	n.PutDevice(dev("B", dataplane.KindGSwitch))
	n.PutLink(link("A", 1, "B", 1))
	snap := n.Snapshot()

	m := New()
	fired := false
	m.Subscribe(func(Event) { fired = true })
	m.Restore(snap)
	if fired {
		t.Fatal("Restore must not fire events")
	}
	if len(m.Devices(dataplane.KindUnknown)) != 2 || m.NumLinks() != 1 {
		t.Fatalf("restored %d devices %d links", len(m.Devices(dataplane.KindUnknown)), m.NumLinks())
	}
	// snapshot isolation: mutating original does not affect restored copy
	n.RemoveDevice("A")
	if len(m.Devices(dataplane.KindUnknown)) != 2 {
		t.Fatal("restored NIB aliases source")
	}
}

// Property: after any sequence of puts, Links() has no duplicate keys and
// lookup by either orientation succeeds.
func TestLinkSetPropertyQuick(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		n := New()
		for _, p := range pairs {
			a := dataplane.PortRef{Dev: dataplane.DeviceID(rune('A' + p[0]%8)), Port: 1}
			b := dataplane.PortRef{Dev: dataplane.DeviceID(rune('A' + p[1]%8)), Port: 2}
			n.PutLink(Link{A: a, B: b, Up: true})
		}
		seen := map[LinkKey]bool{}
		for _, l := range n.Links() {
			k := l.Key()
			if seen[k] {
				return false
			}
			seen[k] = true
			if _, ok := n.LinkByKey(NewLinkKey(l.B, l.A)); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEventLog(t *testing.T) {
	l := NewEventLog()
	id1 := l.Append("handover", "req-1")
	id2 := l.Append("bearer", "req-2")
	id3 := l.Append("handover", "req-3")
	l.MarkDone(id2)
	unf := l.Unfinished()
	if len(unf) != 2 || unf[0].ID != id1 || unf[1].ID != id3 {
		t.Fatalf("unfinished = %+v", unf)
	}
	if unf[0].Payload != "req-1" {
		t.Fatalf("payload = %v", unf[0].Payload)
	}
	l.MarkDone(999) // unknown, no-op
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	l.TruncateThrough(id3 + 1)
	if l.Len() != 2 {
		t.Fatalf("truncation kept %d", l.Len())
	}
	if len(l.Unfinished()) != 2 {
		t.Fatal("truncation lost unfinished entries")
	}
}

func TestEventLogOrderPreserved(t *testing.T) {
	l := NewEventLog()
	for i := 0; i < 10; i++ {
		l.Append("k", i)
	}
	unf := l.Unfinished()
	for i := 1; i < len(unf); i++ {
		if unf[i].ID < unf[i-1].ID {
			t.Fatal("unfinished entries must keep arrival order")
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvDeviceAdded, EvDeviceRemoved, EvLinkAdded, EvLinkRemoved}
	seen := map[string]bool{}
	for _, k := range kinds {
		if seen[k.String()] {
			t.Fatal("duplicate event kind string")
		}
		seen[k.String()] = true
	}
}

func TestDevicePortByID(t *testing.T) {
	d := dev("A", dataplane.KindSwitch)
	if d.PortByID(1) == nil {
		t.Fatal("port 1 should exist")
	}
	if d.PortByID(9) != nil {
		t.Fatal("port 9 should not exist")
	}
}

// TestGenerationAdvancesOnMutations checks that every state-changing
// operation bumps the generation, no-ops do not, and event-less Restore
// still advances it (the routing-graph cache keys off this counter).
func TestGenerationAdvancesOnMutations(t *testing.T) {
	n := New()
	g0 := n.Generation()

	n.PutDevice(dev("A", dataplane.KindSwitch))
	n.PutDevice(dev("B", dataplane.KindSwitch))
	if n.Generation() != g0+2 {
		t.Fatalf("generation after 2 PutDevice = %d, want %d", n.Generation(), g0+2)
	}

	l := link("A", 1, "B", 1)
	n.PutLink(l)
	g := n.Generation()
	if g != g0+3 {
		t.Fatalf("generation after PutLink = %d, want %d", g, g0+3)
	}

	// Up-flag flip bumps; repeating the same state is a no-op.
	if !n.SetLinkUp(l.Key(), false) {
		t.Fatal("SetLinkUp should find the record")
	}
	if n.Generation() != g+1 {
		t.Fatalf("generation after down-flip = %d, want %d", n.Generation(), g+1)
	}
	n.SetLinkUp(l.Key(), false) // no change
	if n.Generation() != g+1 {
		t.Fatalf("no-op SetLinkUp moved the generation to %d", n.Generation())
	}

	// Reads never move it.
	_ = n.Links()
	_ = n.Devices(dataplane.KindUnknown)
	_, _ = n.Device("A")
	_ = n.Snapshot()
	if n.Generation() != g+1 {
		t.Fatalf("reads moved the generation to %d", n.Generation())
	}

	// Removing a missing link is a no-op; removing a real one bumps.
	n.RemoveLink(NewLinkKey(dataplane.PortRef{Dev: "X", Port: 1}, dataplane.PortRef{Dev: "Y", Port: 1}))
	if n.Generation() != g+1 {
		t.Fatalf("no-op RemoveLink moved the generation to %d", n.Generation())
	}
	n.RemoveLink(l.Key())
	if n.Generation() != g+2 {
		t.Fatalf("generation after RemoveLink = %d, want %d", n.Generation(), g+2)
	}

	// RemoveDevice bumps once (even when it cascades links); removing a
	// missing device is a no-op.
	n.RemoveDevice("missing")
	if n.Generation() != g+2 {
		t.Fatalf("no-op RemoveDevice moved the generation to %d", n.Generation())
	}
	n.RemoveDevice("A")
	if n.Generation() != g+3 {
		t.Fatalf("generation after RemoveDevice = %d, want %d", n.Generation(), g+3)
	}

	// Restore fires no events but must still advance the generation.
	snap := n.Snapshot()
	before := n.Generation()
	n.Restore(snap)
	if n.Generation() <= before {
		t.Fatalf("Restore did not advance the generation (%d -> %d)", before, n.Generation())
	}
}

// PortByID returns the device's port record, or nil.
func (d *Device) PortByID(id dataplane.PortID) *PortRecord {
	for i := range d.Ports {
		if d.Ports[i].ID == id {
			return &d.Ports[i]
		}
	}
	return nil
}
