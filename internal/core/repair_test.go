package core

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/routing"
	"repro/internal/southbound"
)

func TestRepairPathsAfterLinkFailure(t *testing.T) {
	f := buildRerouteFixture(t) // diamond: S1-{S2,S3}-S4
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	id, err := f.leaf.SetupPathWithDemand(match, f.pathVia(t, routing.MinHops), 0) // via S2
	if err != nil {
		t.Fatal(err)
	}
	res := f.drive(t)
	if res.Packet.Path()[1] != "S2" {
		t.Fatalf("precondition: path via %v", res.Packet.Path())
	}

	// Fail the S1-S2 link and repair.
	var link *dataplane.Link
	for _, l := range f.net.Links() {
		if (l.A.Dev == "S1" && l.B.Dev == "S2") || (l.A.Dev == "S2" && l.B.Dev == "S1") {
			link = l
		}
	}
	f.net.SetLinkState(link, false) // prunes the NIB via PortStatus events
	ref := link.A
	if ref.Dev != "S1" {
		ref = link.B
	}
	repaired, failed := f.leaf.RepairPaths(ref)
	if len(failed) != 0 {
		t.Fatalf("failed paths: %v", failed)
	}
	if len(repaired) != 1 || repaired[0] != id {
		t.Fatalf("repaired = %v", repaired)
	}

	res = f.drive(t)
	if res.Disposition != dataplane.DispEgressed {
		t.Fatalf("post-repair delivery: %v", res.Disposition)
	}
	if res.Packet.Path()[1] != "S3" {
		t.Fatalf("repair should reroute via S3, went %v", res.Packet.Path())
	}
	if res.MaxLabelDepth > 1 {
		t.Fatal("label invariant across repair")
	}
}

func TestRepairDeactivatesUnreachablePaths(t *testing.T) {
	f := buildRerouteFixture(t)
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	id, err := f.leaf.SetupPathWithDemand(match, f.pathVia(t, routing.MinHops), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fail BOTH diamond arms: no alternative exists.
	for _, l := range f.net.Links() {
		if l.A.Dev == "S1" || l.B.Dev == "S1" {
			f.net.SetLinkState(l, false)
		}
	}
	_, failed := f.leaf.RepairPaths(dataplane.PortRef{Dev: "S1", Port: 1})
	// the via-S2 path used S1 port 1
	if len(failed) != 1 || failed[0] != id {
		t.Fatalf("failed = %v", failed)
	}
	rec, _ := f.leaf.Path(id)
	if rec.Active {
		t.Fatal("unrepairable path must deactivate")
	}
	// traffic punts (reachable for recomputation) instead of blackholing
	res := f.drive(t)
	if res.Disposition != dataplane.DispPunted {
		t.Fatalf("disposition = %v", res.Disposition)
	}
}

func TestHandleLinkFailureEndToEnd(t *testing.T) {
	f := buildRerouteFixture(t)
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	if _, err := f.leaf.SetupPathWithDemand(match, f.pathVia(t, routing.MinHops), 0); err != nil {
		t.Fatal(err)
	}
	var link *dataplane.Link
	for _, l := range f.net.Links() {
		if (l.A.Dev == "S1" && l.B.Dev == "S2") || (l.A.Dev == "S2" && l.B.Dev == "S1") {
			link = l
		}
	}
	link.SetUp(false)
	ref := link.A
	if ref.Dev != "S1" {
		ref = link.B
	}
	repaired, failed := f.leaf.HandleLinkFailure(ref.Dev, ref.Port)
	if len(repaired) != 1 || len(failed) != 0 {
		t.Fatalf("repaired=%v failed=%v", repaired, failed)
	}
	// The failed link's record is retained, marked down, so a later
	// port-up can restore it without re-discovery.
	if f.leaf.NIB.NumLinks() != 4 {
		t.Fatalf("NIB links = %d, want 4 (record retained)", f.leaf.NIB.NumLinks())
	}
	if f.leaf.NIB.NumUpLinks() != 3 {
		t.Fatalf("up NIB links = %d, want 3 (one down)", f.leaf.NIB.NumUpLinks())
	}
	res := f.drive(t)
	if res.Disposition != dataplane.DispEgressed || res.Packet.Path()[1] != "S3" {
		t.Fatalf("post-failure: %v via %v", res.Disposition, res.Packet.Path())
	}
}

// deleteCounter wraps a device and counts the delete commands it receives.
type deleteCounter struct {
	Device
	deletes int
}

func (d *deleteCounter) RemoveRules(cmd southbound.FlowModCommand, owner string, version int) error {
	d.deletes++
	return d.Device.RemoveRules(cmd, owner, version)
}

// TestRepairScrubStaysOnPathDevices: a failed link with no alternative
// deactivates the path and scrubs its rules from the devices the path was
// installed on, as a teardown does, not from every device of the region;
// no rule of the dead path survives anywhere.
func TestRepairScrubStaysOnPathDevices(t *testing.T) {
	f := buildRerouteFixture(t) // diamond: S1-{S2,S3}-S4
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	id, err := f.leaf.SetupPathWithDemand(match, f.pathVia(t, routing.MinHops), 0) // S1-S2-S4
	if err != nil {
		t.Fatal(err)
	}
	counters := make(map[dataplane.DeviceID]*deleteCounter)
	for _, d := range f.leaf.Devices() {
		w := &deleteCounter{Device: d}
		counters[d.ID()] = w
		f.leaf.AttachDevice(w)
	}
	for _, l := range f.net.Links() {
		if l.A.Dev == "S1" || l.B.Dev == "S1" {
			f.net.SetLinkState(l, false)
		}
	}
	if _, failed := f.leaf.RepairPaths(dataplane.PortRef{Dev: "S1", Port: 1}); len(failed) != 1 || failed[0] != id {
		t.Fatalf("failed = %v, want [%d]", failed, id)
	}
	for dev, want := range map[dataplane.DeviceID]int{"S1": 1, "S2": 1, "S3": 0, "S4": 1} {
		if got := counters[dev].deletes; got != want {
			t.Errorf("%s received %d delete(s), want %d", dev, got, want)
		}
	}
	if err := CheckNoOrphanRules(f.net, []*Controller{f.leaf}); err != nil {
		t.Fatal(err)
	}
}
