package core

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/nib"
	"repro/internal/routing"
	"repro/internal/topo"
)

// Property-style invariant tests over generated topologies (DESIGN.md §5).

// buildHierarchyOver partitions a generated topology into k leaf regions
// (no radio) and bootstraps a 2-level hierarchy.
func buildHierarchyOver(t *testing.T, seed int64, switches, k int) (*topo.Topology, []topo.Region, *Hierarchy) {
	t.Helper()
	tp := topo.Generate(topo.Params{Seed: seed, NumSwitches: switches})
	regions := topo.Partition(tp, k)
	specs := make([]LeafSpec, len(regions))
	for i, r := range regions {
		specs[i] = LeafSpec{ID: "L" + r.ID, Switches: r.Switches}
	}
	h, err := NewTwoLevel(tp.Net, "root", specs)
	if err != nil {
		t.Fatal(err)
	}
	return tp, regions, h
}

// Invariant 2 (DESIGN.md): every physical link is discovered by exactly
// one controller — the leaf owning both endpoints, or the root for
// cross-region links.
func TestDiscoveryCompletenessAndUniqueness(t *testing.T) {
	for _, seed := range []int64{1, 7, 2026} {
		tp, regions, h := buildHierarchyOver(t, seed, 72, 4)
		regionOf := topo.RegionOf(regions)

		// Each physical link must appear in exactly one controller's NIB.
		leafLinks := make(map[nib.LinkKey]string)
		for _, leaf := range h.Leaves {
			for _, l := range leaf.NIB.Links() {
				k := l.Key()
				if prev, dup := leafLinks[k]; dup {
					t.Fatalf("seed %d: link %v discovered by %s and %s", seed, k, prev, leaf.ID)
				}
				leafLinks[k] = leaf.ID
			}
		}
		intra, cross := 0, 0
		for _, l := range tp.Net.Links() {
			ra, rb := regionOf[l.A.Dev], regionOf[l.B.Dev]
			k := nib.NewLinkKey(l.A, l.B)
			if ra == rb {
				intra++
				owner, ok := leafLinks[k]
				if !ok {
					t.Fatalf("seed %d: intra-region link %v undiscovered", seed, k)
				}
				if owner != "L"+regions[ra].ID {
					t.Fatalf("seed %d: link %v owned by %s, expected %s", seed, k, owner, regions[ra].ID)
				}
			} else {
				cross++
				if _, leaked := leafLinks[k]; leaked {
					t.Fatalf("seed %d: cross-region link %v visible at a leaf", seed, k)
				}
			}
		}
		// The root sees exactly one logical link per physical cross link.
		if got := h.Root.NIB.NumLinks(); got != cross {
			t.Fatalf("seed %d: root discovered %d links, want %d", seed, got, cross)
		}
		if intra == 0 || cross == 0 {
			t.Fatalf("seed %d: degenerate partition (intra=%d cross=%d)", seed, intra, cross)
		}
	}
}

// Invariant 3 (DESIGN.md): every reachable vFabric pair advertises exactly
// the shortest internal (hops, latency) between its underlying ports, and
// never overstates the bottleneck bandwidth.
func TestVFabricSoundness(t *testing.T) {
	_, _, h := buildHierarchyOver(t, 11, 48, 3)
	for _, leaf := range h.Leaves {
		ab := leaf.Abstraction()
		g := routing.BuildGraph(leaf.NIB)
		ports := ab.GSwitch.Ports
		checked := 0
		for i := 0; i < len(ports); i++ {
			for j := i + 1; j < len(ports); j++ {
				m, ok := ab.GSwitch.Fabric.Get(ports[i].ID, ports[j].ID)
				if !ok {
					t.Fatalf("%s: missing fabric pair %d-%d", leaf.ID, ports[i].ID, ports[j].ID)
				}
				p, err := g.ShortestPath(ports[i].Underlying, ports[j].Underlying,
					routing.MinHops, routing.Constraints{})
				if err != nil {
					if m.Reachable {
						t.Fatalf("%s: fabric says reachable, graph disagrees", leaf.ID)
					}
					continue
				}
				if !m.Reachable {
					t.Fatalf("%s: fabric says unreachable, graph found %d hops", leaf.ID, p.Cost.Hops)
				}
				if m.Hops != p.Cost.Hops || m.Latency != p.Cost.Latency {
					t.Fatalf("%s: fabric %d-%d advertises %dh/%v, shortest is %dh/%v",
						leaf.ID, ports[i].ID, ports[j].ID, m.Hops, m.Latency, p.Cost.Hops, p.Cost.Latency)
				}
				if m.Bandwidth > p.Cost.Bottleneck {
					t.Fatalf("%s: fabric overstates bandwidth (%v > %v)",
						leaf.ID, m.Bandwidth, p.Cost.Bottleneck)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s exposed no port pairs", leaf.ID)
		}
	}
}

// Invariant 4 (DESIGN.md): the root's route for the same request is never
// worse than any leaf's.
func TestRootNeverWorseThanLeaf(t *testing.T) {
	f := buildFig5(t, 0)
	for _, pfx := range []string{"pfxNear", "pfxFar"} {
		leafRes, leafErr := f.l1.Route(RouteRequest{From: f.radioA, Prefix: interdomain.PrefixID(pfx)})
		gbsPort, ok := f.root.AttachOfGroup("gA")
		if !ok {
			t.Fatal("no root attachment")
		}
		rootRes, rootErr := f.root.Route(RouteRequest{From: gbsPort, Prefix: interdomain.PrefixID(pfx)})
		if rootErr != nil {
			t.Fatalf("root cannot route %s: %v", pfx, rootErr)
		}
		if leafErr == nil && rootRes.TotalHops > leafRes.TotalHops {
			t.Fatalf("%s: root (%d hops) worse than leaf (%d)", pfx, rootRes.TotalHops, leafRes.TotalHops)
		}
	}
}

// Invariant 1 (DESIGN.md): with recursive swapping, every delivered packet
// observed depth ≤ 1 on all links for every admitted flow, across a
// generated multi-region scenario. Exercised end-to-end in
// TestDelegatedBearerPathCrossesRegions and cmd/softmow; here we recheck
// the whole flow table population for swap-breaking rule shapes.
func TestNoStackingRulesInSwapMode(t *testing.T) {
	f := buildFig5(t, 0)
	if _, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u", BS: "b1", Prefix: "pfxFar"}); err != nil {
		t.Fatal(err)
	}
	for _, sw := range f.net.Switches() {
		for _, r := range sw.Table.Rules() {
			pushes := 0
			for _, a := range r.Actions {
				if a.Op == dataplane.OpPushLabel {
					pushes++
				}
			}
			if pushes > 1 {
				t.Fatalf("swap-mode rule pushes %d labels on %s: %v", pushes, sw.ID, r)
			}
			// a rule that pushes must match unlabeled traffic only
			if pushes == 1 && !r.Match.MatchNoLabel {
				for _, a := range r.Actions {
					if a.Op == dataplane.OpPopLabel || a.Op == dataplane.OpSwapLabel {
						goto ok // pop+push or swap combinations keep depth
					}
				}
				t.Fatalf("rule grows label depth on labeled traffic: %v", r)
			}
		ok:
		}
	}
}
