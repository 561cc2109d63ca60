package core

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/routing"
)

// TestLinkFlapFixpoint flaps the two diamond arms alternately: each flap
// fails the arm currently carrying the path, forcing a repair onto the
// other arm, then restores the link. After every cycle the controller must
// return to its pre-flap fixpoint — same active path count, same NIB link
// records (all up again), same installed-rule count — and traffic must
// still egress with at most one label per packet.
func TestLinkFlapFixpoint(t *testing.T) {
	f := buildRerouteFixture(t)
	match := dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}
	if _, err := f.leaf.SetupPathWithDemand(match, f.pathVia(t, routing.MinHops), 0); err != nil {
		t.Fatal(err)
	}

	countRules := func() int {
		total := 0
		for _, sw := range f.net.Switches() {
			total += sw.Table.Len()
		}
		return total
	}
	findLink := func(a, b dataplane.DeviceID) *dataplane.Link {
		for _, l := range f.net.Links() {
			if (l.A.Dev == a && l.B.Dev == b) || (l.A.Dev == b && l.B.Dev == a) {
				return l
			}
		}
		t.Fatalf("no %s-%s link", a, b)
		return nil
	}

	wantPaths := f.leaf.NumPaths()
	wantLinks := f.leaf.NIB.NumLinks()
	wantRules := countRules()

	arms := []*dataplane.Link{findLink("S1", "S2"), findLink("S1", "S3")}
	const flaps = 6
	for i := 0; i < flaps; i++ {
		l := arms[i%2] // always the arm the path currently uses
		f.net.SetLinkState(l, false)
		ref := l.A
		if ref.Dev != "S1" {
			ref = l.B
		}
		repaired, failed := f.leaf.HandleLinkFailure(ref.Dev, ref.Port)
		if len(failed) != 0 || len(repaired) != 1 {
			t.Fatalf("flap %d: repaired=%v failed=%v", i, repaired, failed)
		}
		f.net.SetLinkState(l, true)

		if got := f.leaf.NumPaths(); got != wantPaths {
			t.Fatalf("flap %d: paths=%d want %d", i, got, wantPaths)
		}
		if got := f.leaf.NIB.NumLinks(); got != wantLinks {
			t.Fatalf("flap %d: NIB links=%d want %d", i, got, wantLinks)
		}
		if got := f.leaf.NIB.NumUpLinks(); got != wantLinks {
			t.Fatalf("flap %d: up links=%d want %d (restore lost)", i, got, wantLinks)
		}
		if got := countRules(); got != wantRules {
			t.Fatalf("flap %d: rules=%d want %d", i, got, wantRules)
		}
		res := f.drive(t)
		if res.Disposition != dataplane.DispEgressed {
			t.Fatalf("flap %d: disposition %v", i, res.Disposition)
		}
		if res.MaxLabelDepth > 1 {
			t.Fatalf("flap %d: label depth %d", i, res.MaxLabelDepth)
		}
	}
}
