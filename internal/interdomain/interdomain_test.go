package interdomain

import (
	"testing"

	"repro/internal/dataplane"
)

func twoEgressTable(seed int64, prefixes int) *Table {
	return Generate(GenParams{
		Seed:        seed,
		NumPrefixes: prefixes,
		Egresses: []EgressSite{
			{ID: "E1", Loc: dataplane.GeoPoint{X: 0, Y: 500}},
			{ID: "E2", Loc: dataplane.GeoPoint{X: 1000, Y: 500}},
		},
		Snapshots: 3,
	})
}

func TestGenerateShape(t *testing.T) {
	tb := twoEgressTable(1, 100)
	if len(tb.Prefixes()) != 100 {
		t.Fatalf("prefixes = %d", len(tb.Prefixes()))
	}
	if len(tb.Egresses()) != 2 {
		t.Fatalf("egresses = %v", tb.Egresses())
	}
	if tb.Snapshots() != 3 {
		t.Fatalf("snapshots = %d", tb.Snapshots())
	}
}

func TestGenerateDefaultPrefixCount(t *testing.T) {
	tb := Generate(GenParams{Seed: 1, Egresses: []EgressSite{{ID: "E1"}}, Snapshots: 1, NumPrefixes: 0})
	if len(tb.Prefixes()) != 11590 {
		t.Fatalf("default prefix count should match Fig. 8 (11590), got %d", len(tb.Prefixes()))
	}
}

func TestDeterministic(t *testing.T) {
	a, b := twoEgressTable(5, 50), twoEgressTable(5, 50)
	for _, pfx := range a.Prefixes() {
		ma, _ := a.Lookup(0, "E1", pfx)
		mb, _ := b.Lookup(0, "E1", pfx)
		if ma != mb {
			t.Fatalf("nondeterministic metrics for %s", pfx)
		}
	}
}

func TestLookupBounds(t *testing.T) {
	tb := twoEgressTable(1, 10)
	if _, ok := tb.Lookup(-1, "E1", "pfx00001"); ok {
		t.Fatal("negative snapshot")
	}
	if _, ok := tb.Lookup(99, "E1", "pfx00001"); ok {
		t.Fatal("snapshot out of range")
	}
	if _, ok := tb.Lookup(0, "nope", "pfx00001"); ok {
		t.Fatal("unknown egress")
	}
	if _, ok := tb.Lookup(0, "E1", "nope"); ok {
		t.Fatal("unknown prefix")
	}
	if m, ok := tb.Lookup(0, "E1", "pfx00001"); !ok || m.Hops < 1 || m.RTT <= 0 {
		t.Fatalf("valid lookup: %v %v", m, ok)
	}
}

func TestSpatialCorrelation(t *testing.T) {
	// Prefixes nearer E1 should, on aggregate, have fewer hops via E1 than
	// via E2 — the property that makes egress diversity matter (Fig. 8).
	tb := twoEgressTable(2, 2000)
	e1Wins, e2Wins := 0, 0
	for _, pfx := range tb.Prefixes() {
		m1, _ := tb.Lookup(0, "E1", pfx)
		m2, _ := tb.Lookup(0, "E2", pfx)
		switch {
		case m1.Hops < m2.Hops:
			e1Wins++
		case m2.Hops < m1.Hops:
			e2Wins++
		}
	}
	if e1Wins == 0 || e2Wins == 0 {
		t.Fatalf("no egress diversity: e1=%d e2=%d", e1Wins, e2Wins)
	}
	// both should win a sizeable share given symmetric placement
	if e1Wins < 400 || e2Wins < 400 {
		t.Fatalf("suspiciously skewed: e1=%d e2=%d", e1Wins, e2Wins)
	}
}

func TestSnapshotJitter(t *testing.T) {
	tb := twoEgressTable(3, 500)
	changed := 0
	for _, pfx := range tb.Prefixes() {
		m0, _ := tb.Lookup(0, "E1", pfx)
		m1, _ := tb.Lookup(1, "E1", pfx)
		if m0.Hops != m1.Hops {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("snapshots should differ (routing changes)")
	}
	if changed == 500 {
		t.Fatal("snapshots should remain correlated")
	}
}

func TestSelectRoutes(t *testing.T) {
	tb := twoEgressTable(1, 25)
	routes := tb.SelectRoutes(0, "E1", "SW9")
	if len(routes) != 25 {
		t.Fatalf("routes = %d", len(routes))
	}
	for _, r := range routes {
		if r.Egress != "E1" || r.EgressSwitch != "SW9" {
			t.Fatalf("route annotation: %+v", r)
		}
		m, _ := tb.Lookup(0, "E1", r.Prefix)
		if r.Metrics != m {
			t.Fatal("route metrics mismatch")
		}
	}
	if tb.SelectRoutes(0, "nope", "SW9") != nil {
		t.Fatal("unknown egress should be nil")
	}
	if tb.SelectRoutes(9, "E1", "SW9") != nil {
		t.Fatal("bad snapshot should be nil")
	}
}

func TestBestEgress(t *testing.T) {
	tb := twoEgressTable(1, 200)
	for _, pfx := range tb.Prefixes()[:50] {
		id, m, ok := tb.BestEgress(0, pfx, nil)
		if !ok {
			t.Fatal("best egress not found")
		}
		for _, e := range tb.Egresses() {
			em, _ := tb.Lookup(0, e, pfx)
			if em.Hops < m.Hops {
				t.Fatalf("BestEgress(%s) = %s (%d hops) but %s has %d", pfx, id, m.Hops, e, em.Hops)
			}
		}
	}
	// restricted candidates
	id, _, ok := tb.BestEgress(0, tb.Prefixes()[0], []string{"E2"})
	if !ok || id != "E2" {
		t.Fatalf("restricted best = %s %v", id, ok)
	}
	if _, _, ok := tb.BestEgress(0, tb.Prefixes()[0], []string{"nope"}); ok {
		t.Fatal("unknown candidates should fail")
	}
}

// Egresses returns all egress IDs the table covers.
func (t *Table) Egresses() []string { return t.egresses }

// BestEgress returns, for one prefix, the egress (among candidates; nil
// means all) with minimal external hops, ties broken by RTT.
func (t *Table) BestEgress(snapshot int, prefix PrefixID, candidates []string) (string, Metrics, bool) {
	cands := candidates
	if cands == nil {
		cands = t.egresses
	}
	var (
		bestID string
		best   Metrics
		found  bool
	)
	for _, id := range cands {
		m, ok := t.Lookup(snapshot, id, prefix)
		if !ok {
			continue
		}
		if !found || m.Hops < best.Hops || (m.Hops == best.Hops && m.RTT < best.RTT) {
			bestID, best, found = id, m, true
		}
	}
	return bestID, best, found
}
