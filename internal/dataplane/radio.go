package dataplane

import (
	"fmt"
	"math"
	"slices"
)

// GeoPoint is a planar location for base stations. The evaluation assigns
// geographic locations to BS groups to preserve neighborhood relationships
// (§7.1), which the mobility model uses to generate handovers.
type GeoPoint struct {
	X, Y float64
}

// Dist returns Euclidean distance between two points.
func (g GeoPoint) Dist(o GeoPoint) float64 {
	dx, dy := g.X-o.X, g.Y-o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// BaseStation models an eNodeB. UE↔BS protocols are unchanged in SoftMoW
// (§2.1), so base stations carry only identity, location and group
// membership; radio scheduling is out of scope.
type BaseStation struct {
	ID      DeviceID
	Loc     GeoPoint
	GroupID DeviceID
	// AdvertisedGBS is the border G-BS ID broadcast on the physical
	// broadcast channel for inter-region handover targeting (§5.2); empty
	// for internal base stations.
	AdvertisedGBS DeviceID
}

// GroupTopology enumerates intra-group interconnects (§2.1: "different
// topologies (e.g., ring, mesh, and spoke-hub)").
type GroupTopology int

const (
	// TopoRing is the evaluation default (§7.1: "at most 6 inferred base
	// stations organized in a ring topology").
	TopoRing GroupTopology = iota
	// TopoMesh connects every base-station pair in the group directly.
	TopoMesh
	// TopoHub stars the group around its first base station.
	TopoHub
)

// String implements fmt.Stringer.
func (t GroupTopology) String() string {
	switch t {
	case TopoRing:
		return "ring"
	case TopoMesh:
		return "mesh"
	case TopoHub:
		return "spoke-hub"
	default:
		return fmt.Sprintf("topo(%d)", int(t))
	}
}

// MaxGroupSize is the paper's BS-group size bound (§7.1).
const MaxGroupSize = 6

// BSGroup organizes up to MaxGroupSize base stations behind one access
// switch for intra-group fast paths (§2.1).
type BSGroup struct {
	ID       DeviceID
	Topology GroupTopology
	// AccessSwitch performs fine-grained packet classification for all
	// member base stations.
	AccessSwitch DeviceID
	members      []DeviceID
}

// NewBSGroup creates an empty group attached to the given access switch.
func NewBSGroup(id DeviceID, topo GroupTopology, access DeviceID) *BSGroup {
	return &BSGroup{ID: id, Topology: topo, AccessSwitch: access}
}

// AddMember appends a base station; it fails once the group is full.
func (g *BSGroup) AddMember(bs DeviceID) error {
	if len(g.members) >= MaxGroupSize {
		return fmt.Errorf("dataplane: group %s full (max %d)", g.ID, MaxGroupSize)
	}
	g.members = append(g.members, bs)
	return nil
}

// Members returns the member base stations in insertion order.
func (g *BSGroup) Members() []DeviceID {
	return append([]DeviceID(nil), g.members...)
}

// Size reports the member count.
func (g *BSGroup) Size() int { return len(g.members) }

// IntraGroupEdges materializes the group's interconnect as BS-ID pairs
// according to its topology. Ring: i—(i+1) mod n; mesh: all pairs;
// spoke-hub: member 0 to each other member. Groups of size < 2 have no
// edges.
func (g *BSGroup) IntraGroupEdges() [][2]DeviceID {
	n := len(g.members)
	if n < 2 {
		return nil
	}
	var edges [][2]DeviceID
	switch g.Topology {
	case TopoMesh:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, [2]DeviceID{g.members[i], g.members[j]})
			}
		}
	case TopoHub:
		for i := 1; i < n; i++ {
			edges = append(edges, [2]DeviceID{g.members[0], g.members[i]})
		}
	default: // TopoRing
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			if n == 2 && i == 1 {
				break // avoid a duplicate edge in a 2-ring
			}
			edges = append(edges, [2]DeviceID{g.members[i], g.members[j]})
		}
	}
	return edges
}

// Centroid computes the group's location from member base stations, used
// when assigning groups to geographic regions. locs maps BS ID to location.
func (g *BSGroup) Centroid(locs map[DeviceID]GeoPoint) GeoPoint {
	if len(g.members) == 0 {
		return GeoPoint{}
	}
	var c GeoPoint
	n := 0
	for _, id := range g.members {
		if p, ok := locs[id]; ok {
			c.X += p.X
			c.Y += p.Y
			n++
		}
	}
	if n == 0 {
		return GeoPoint{}
	}
	c.X /= float64(n)
	c.Y /= float64(n)
	return c
}

// Middlebox is a physical middlebox instance attached to a switch port
// (§2.1). Capacity and utilization feed the G-middlebox aggregation
// (§3.1: "identified with the sum of the processing capacities and
// utilization of constituent instances").
type Middlebox struct {
	ID       DeviceID
	Type     MiddleboxType
	Attach   PortRef
	Capacity float64 // abstract processing units
	Load     float64 // current utilization in the same units
}

// Utilization returns Load/Capacity in [0,1] (0 for zero capacity).
func (m *Middlebox) Utilization() float64 {
	if m.Capacity <= 0 {
		return 0
	}
	u := m.Load / m.Capacity
	if u > 1 {
		u = 1
	}
	return u
}

// EgressPoint marks a switch port as an Internet egress: a peering with an
// ISP or content provider where interdomain routes are learned (§4.2).
type EgressPoint struct {
	ID     string
	Switch DeviceID
	Port   PortID
	// PeerDomain names the neighbor domain (ISP/CDN).
	PeerDomain string
}

// ServicePolicy is a partially ordered set of middlebox types that traffic
// must traverse (§2.1). Order lists the chain; traffic must visit the types
// in an order consistent with it.
type ServicePolicy struct {
	Name  string
	Chain []MiddleboxType
}

// Satisfied reports whether the visited middlebox sequence contains the
// policy chain as a subsequence (poset compliance for a totally ordered
// chain).
func (sp ServicePolicy) Satisfied(visited []MiddleboxType) bool {
	i := 0
	for _, v := range visited {
		if i < len(sp.Chain) && v == sp.Chain[i] {
			i++
		}
	}
	return i == len(sp.Chain)
}

// SortDeviceIDs sorts a slice of device IDs in place and returns it,
// giving deterministic iteration order to callers ranging over maps.
func SortDeviceIDs(ids []DeviceID) []DeviceID {
	slices.Sort(ids)
	return ids
}
