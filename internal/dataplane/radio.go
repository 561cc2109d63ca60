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

// MaxGroupSize is the paper's BS-group size bound (§7.1).
const MaxGroupSize = 6

// BSGroup organizes up to MaxGroupSize base stations behind one access
// switch for intra-group fast paths (§2.1). The paper's groups are rings
// (§7.1); the interconnect inside a group is not modelled.
type BSGroup struct {
	ID DeviceID
	// AccessSwitch performs fine-grained packet classification for all
	// member base stations.
	AccessSwitch DeviceID
	members      []DeviceID
}

// NewBSGroup creates an empty group attached to the given access switch.
func NewBSGroup(id, access DeviceID) *BSGroup {
	return &BSGroup{ID: id, AccessSwitch: access}
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
//
//softmow:allow testonly ROADMAP item 4: the policy bearer op checks its traversal with it
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
