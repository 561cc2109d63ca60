package ltetrace

import (
	"fmt"
	"sort"

	"repro/internal/dataplane"
)

// InferGroups runs the paper's BS-group inference algorithm (§7.1):
//
//	"We assume each group has at most 6 base stations organized based on
//	the ring topology. Our algorithm aims to find groups maximizing the
//	weight of intra-group edges in the global handover graph. The optimal
//	solution is NP-hard, so we design a greedy algorithm. In each
//	iteration, the edge with the lowest weight is removed and then
//	strongly connected components with fewer than 6 base stations are
//	computed. We remove the components from the working graph and mark
//	each as a new BS group."
//
// The returned groups partition the graph's nodes; every group has at most
// dataplane.MaxGroupSize members and ring topology. Isolated nodes become
// singleton groups.
func InferGroups(g *HandoverGraph) []*dataplane.BSGroup {
	var memberSets [][]dataplane.DeviceID

	// Live adjacency, maintained across removals so each component check
	// only walks the touched component.
	adj := make(map[dataplane.DeviceID]map[dataplane.DeviceID]bool, len(g.nodes))
	for n := range g.nodes {
		adj[n] = make(map[dataplane.DeviceID]bool)
	}
	for k, w := range g.counts {
		if w <= 0 {
			continue
		}
		if adj[k.A] == nil {
			adj[k.A] = make(map[dataplane.DeviceID]bool)
		}
		if adj[k.B] == nil {
			adj[k.B] = make(map[dataplane.DeviceID]bool)
		}
		adj[k.A][k.B] = true
		adj[k.B][k.A] = true
	}

	// componentOf walks the component containing start but gives up (nil)
	// as soon as it exceeds MaxGroupSize — only small components are ever
	// extracted, so larger ones need no full enumeration.
	componentOf := func(start dataplane.DeviceID) []dataplane.DeviceID {
		visited := map[dataplane.DeviceID]bool{start: true}
		stack := []dataplane.DeviceID{start}
		var comp []dataplane.DeviceID
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, cur)
			if len(comp) > dataplane.MaxGroupSize {
				return nil
			}
			for nb := range adj[cur] {
				if !visited[nb] {
					visited[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		return dataplane.SortDeviceIDs(comp)
	}
	extract := func(comp []dataplane.DeviceID) {
		memberSets = append(memberSets, comp)
		for _, n := range comp {
			for nb := range adj[n] {
				delete(adj[nb], n)
			}
			delete(adj, n)
		}
	}
	tryExtract := func(seed dataplane.DeviceID) {
		if _, alive := adj[seed]; !alive {
			return
		}
		if comp := componentOf(seed); comp != nil {
			extract(comp)
		}
	}

	// Initial pass: extract components that already fit.
	for _, n := range g.Nodes() {
		tryExtract(n)
	}

	// Removal order is fully determined up front — edge weights never
	// change — so pre-sorting ascending (ties by key, matching Edges()
	// order) reproduces the paper's lightest-edge-first loop while only
	// re-examining the components the removal actually touched.
	edges := g.Edges()
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Weight < edges[j].Weight })
	for _, e := range edges {
		a, b := e.Key.A, e.Key.B
		if adj[a] == nil || !adj[a][b] {
			continue // endpoint extracted already
		}
		delete(adj[a], b)
		delete(adj[b], a)
		tryExtract(a)
		tryExtract(b)
	}
	// Whatever remains is edge-free: singleton groups.
	var rest []dataplane.DeviceID
	for n := range adj {
		rest = append(rest, n)
	}
	dataplane.SortDeviceIDs(rest)
	for _, n := range rest {
		if _, alive := adj[n]; alive {
			extract([]dataplane.DeviceID{n})
		}
	}

	// Deterministic group numbering: by smallest member ID.
	sort.Slice(memberSets, func(i, j int) bool { return memberSets[i][0] < memberSets[j][0] })
	groups := make([]*dataplane.BSGroup, 0, len(memberSets))
	for i, members := range memberSets {
		grp := dataplane.NewBSGroup(
			dataplane.DeviceID(fmt.Sprintf("G%04d", i)), "")
		for _, m := range members {
			if err := grp.AddMember(m); err != nil {
				panic(err) // components are bounded by MaxGroupSize
			}
		}
		groups = append(groups, grp)
	}
	return groups
}
