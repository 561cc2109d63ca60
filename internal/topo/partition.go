package topo

import (
	"fmt"

	"repro/internal/dataplane"
)

// Region is one leaf controller's physical region: a connected,
// approximately equal-sized set of switches (§7.1).
type Region struct {
	ID       string
	Switches []dataplane.DeviceID
}

// Partition splits the topology's switch graph into k connected regions of
// approximately equal size using round-robin growth from geographically
// spread seeds: each region repeatedly claims the unassigned switch
// adjacent to it that lies geographically closest to its seed, so regions
// stay both connected and compact even on topologies with long-haul
// redundancy links. Regions are labeled "A", "B", ... as in Table 1.
func Partition(t *Topology, k int) []Region {
	if k <= 0 {
		return nil
	}
	switches := t.SwitchIDs()
	if k > len(switches) {
		k = len(switches)
	}

	seedPoPs := t.SpreadPoPs(k)
	assigned := make(map[dataplane.DeviceID]int, len(switches))
	regions := make([]Region, k)
	seedLoc := make([]dataplane.GeoPoint, k)
	// candidates[i] holds unassigned switches adjacent to region i.
	candidates := make([]map[dataplane.DeviceID]bool, k)
	claim := func(i int, sw dataplane.DeviceID) {
		assigned[sw] = i
		regions[i].Switches = append(regions[i].Switches, sw)
		for _, adj := range t.Net.Neighbors(sw) {
			if _, ok := assigned[adj.Remote.Dev]; !ok {
				candidates[i][adj.Remote.Dev] = true
			}
		}
	}
	for i := 0; i < k; i++ {
		regions[i] = Region{ID: regionName(i)}
		candidates[i] = make(map[dataplane.DeviceID]bool)
		var seed dataplane.DeviceID
		if i < len(seedPoPs) {
			seed = t.PoPs[seedPoPs[i]].Switches[0]
		}
		if _, taken := assigned[seed]; taken || seed == "" {
			// more regions than PoPs, or seed collision on tiny
			// topologies: fall back to any unassigned switch
			for _, s := range switches {
				if _, ok := assigned[s]; !ok {
					seed = s
					break
				}
			}
		}
		seedLoc[i] = t.Locations[seed]
		claim(i, seed)
	}

	remaining := len(switches) - k
	for remaining > 0 {
		progress := false
		for i := 0; i < k && remaining > 0; i++ {
			// claim the geographically closest adjacent unassigned switch
			var best dataplane.DeviceID
			bestD := 0.0
			for sw := range candidates[i] {
				if _, taken := assigned[sw]; taken {
					delete(candidates[i], sw)
					continue
				}
				d := t.Locations[sw].Dist(seedLoc[i])
				if best == "" || d < bestD || (d == bestD && sw < best) {
					best, bestD = sw, d
				}
			}
			if best == "" {
				continue
			}
			delete(candidates[i], best)
			claim(i, best)
			remaining--
			progress = true
		}
		if !progress {
			// Disconnected leftovers (cannot happen on generated
			// topologies, which are connected): assign to smallest region.
			for _, s := range switches {
				if _, ok := assigned[s]; !ok {
					smallest := 0
					for i := 1; i < k; i++ {
						if len(regions[i].Switches) < len(regions[smallest].Switches) {
							smallest = i
						}
					}
					assigned[s] = smallest
					regions[smallest].Switches = append(regions[smallest].Switches, s)
					remaining--
				}
			}
		}
	}
	for i := range regions {
		dataplane.SortDeviceIDs(regions[i].Switches)
	}
	return regions
}

func regionName(i int) string {
	if i < 26 {
		return string(rune('A' + i))
	}
	return fmt.Sprintf("R%d", i)
}

// RegionOf builds a reverse index from switch to region index.
func RegionOf(regions []Region) map[dataplane.DeviceID]int {
	m := make(map[dataplane.DeviceID]int)
	for i, r := range regions {
		for _, s := range r.Switches {
			m[s] = i
		}
	}
	return m
}
