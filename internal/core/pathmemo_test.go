package core

import (
	"slices"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/routing"
)

// Routes are shared: the graph hands every bearer on one route the same
// immutable *routing.Path, and the path table keeps that pointer and its
// device list instead of copies.

// Two bearers on one route share the path and its device list; rerouting
// one of them must widen only its own record and leave the shared route,
// and the other record, exactly as they were.
func TestRerouteDoesNotWriteIntoSharedRoute(t *testing.T) {
	f := buildLifeFixture(t, false)
	r1 := f.attach(t, BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx"})
	r2 := f.attach(t, BearerRequest{UE: "u2", BS: "b2", Prefix: "pfx"})

	f.leaf.mu.Lock()
	shared := f.leaf.paths[r1.PathID].lastPath
	other := f.leaf.paths[r2.PathID].lastPath
	f.leaf.mu.Unlock()
	if shared != other {
		t.Fatalf("two bearers on one route hold %p and %p, want one shared path", shared, other)
	}
	rec1, _ := f.leaf.Path(r1.PathID)
	rec2, _ := f.leaf.Path(r2.PathID)
	if &rec1.Devices[0] != &shared.Devices()[0] || &rec2.Devices[0] != &shared.Devices()[0] {
		t.Fatal("records copied the route's device list instead of sharing it")
	}
	want := []dataplane.DeviceID{"S1", "S2", "S4"}
	if !slices.Equal(shared.Devices(), want) {
		t.Fatalf("route devices %v, want %v", shared.Devices(), want)
	}

	// Move u1's path onto the S3 arm: its record now spans both arms.
	src, dst := shared.Points[0], shared.Points[len(shared.Points)-1]
	f.net.SetLinkState(f.link(t, "S1", "S2"), false)
	f.waitUpLinks(t, 3)
	detour, err := f.leaf.Graph().ShortestPath(src, dst, routing.MinHops, routing.Constraints{})
	if err != nil || !slices.Equal(detour.Devices(), []dataplane.DeviceID{"S1", "S3", "S4"}) {
		t.Fatalf("detour: %+v %v", detour, err)
	}
	if err := f.leaf.PrepareReroute(r1.PathID, detour); err != nil {
		t.Fatal(err)
	}

	rec1, _ = f.leaf.Path(r1.PathID)
	if got := rec1.Devices; !slices.Equal(got, []dataplane.DeviceID{"S1", "S2", "S4", "S3"}) {
		t.Fatalf("rerouted record spans %v, want both arms", got)
	}
	if !slices.Equal(shared.Devices(), want) || !slices.Equal(detour.Devices(), []dataplane.DeviceID{"S1", "S3", "S4"}) {
		t.Fatalf("reroute wrote into a shared route: old %v new %v", shared.Devices(), detour.Devices())
	}
	rec2, _ = f.leaf.Path(r2.PathID)
	if !slices.Equal(rec2.Devices, want) || &rec2.Devices[0] != &shared.Devices()[0] {
		t.Fatalf("the other bearer's record changed: %v", rec2.Devices)
	}
}

// A NIB generation bump that changes no route builds a new graph, so the
// bearer's recorded *Path and the fresh answer are different objects with
// equal points: the request still moves nothing and keeps its path.
func TestPathKeptAcrossGraphRebuild(t *testing.T) {
	f := buildLifeFixture(t, false)
	first := f.attach(t, BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx"})
	g := f.leaf.Graph()
	f.leaf.NIB.PutLink(f.leaf.NIB.Links()[0]) // same record: new generation, same topology
	if f.leaf.Graph() == g {
		t.Fatal("generation bump did not rebuild the graph")
	}
	f.leaf.mu.Lock()
	recorded := f.leaf.paths[first.PathID].lastPath
	f.leaf.mu.Unlock()
	fresh, err := f.leaf.Graph().ShortestPath(recorded.Points[0], recorded.Points[len(recorded.Points)-1], routing.MinHops, routing.Constraints{})
	if err != nil || fresh == recorded {
		t.Fatalf("new graph answered with the old graph's path object (%v)", err)
	}
	reused := pathsReused.Value()
	again := f.attach(t, BearerRequest{UE: "u1", BS: "b2", Prefix: "pfx"})
	if again.PathID != first.PathID || pathsReused.Value()-reused != 1 {
		t.Fatalf("path %d replaced by %d across a rebuild that moved nothing", first.PathID, again.PathID)
	}
}

// TestDirectBearerAllocsPinned gates the allocation count of the direct
// path: one bearer setup plus its release over SwitchDevices — route from
// the memo, three rules through flushBatch without a join, one heap copy
// per rule in the flow table, the path and UE records. Raise the pin only
// with a reason; two more objects per pair fail it.
func TestDirectBearerAllocsPinned(t *testing.T) {
	f := buildLifeFixture(t, false)
	req := BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx"}
	pair := func() {
		if _, err := f.leaf.HandleBearerRequest(req); err != nil {
			t.Fatal(err)
		}
		if err := f.leaf.DeactivateBearer("u1"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // grow the tables, owner index and lock free list to steady state
		pair()
	}
	const pinned = 12 // 50 before the memo, the install-path fixes and the value-typed UE hold; 24 before flow tables held rules by value
	avg := testing.AllocsPerRun(500, pair)
	if avg >= pinned+2 {
		t.Fatalf("bearer setup + release allocate %.0f objects, pinned at %d", avg, pinned)
	}
	if avg < pinned {
		t.Logf("bearer setup + release allocate %.0f objects, below the pin of %d: lower the pin", avg, pinned)
	}
}

// TestHandoverKeepAllocsPinned gates the same-group handover, the reuse
// path most handovers take (§7.1 "most handovers are intra-group"): the
// route comes from the memo, the options slice is shared, the best option
// is kept by value and the row is rewritten in place, so the one object
// left is the route answer. Raise the pin only with a reason.
func TestHandoverKeepAllocsPinned(t *testing.T) {
	f := buildLifeFixture(t, false)
	f.attach(t, BearerRequest{UE: "u1", BS: "b1", Prefix: "pfx"})
	bs := [2]dataplane.DeviceID{"b1", "b2"}
	n := 0
	move := func() {
		n++
		if err := f.leaf.Handover("u1", "gA", bs[n%2]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		move()
	}
	reused := pathsReused.Value()
	const pinned = 1 // 3 before the options slice was shared, the best route kept by value and the discarded row copy dropped
	avg := testing.AllocsPerRun(500, move)
	if got := pathsReused.Value() - reused; got != 501 {
		t.Fatalf("%d of 501 handovers kept their path, want all", got)
	}
	if avg >= pinned+1 {
		t.Fatalf("same-group handover allocates %.1f objects, pinned at %d", avg, pinned)
	}
	if avg < pinned {
		t.Logf("same-group handover allocates %.1f objects, below the pin of %d: lower the pin", avg, pinned)
	}
}
