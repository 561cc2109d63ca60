package dataplane

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// PortPair is an unordered pair of G-switch border ports. Construct with
// NewPortPair so lookups are orientation-independent.
type PortPair struct {
	A, B PortID
}

// NewPortPair normalizes the pair so A ≤ B.
func NewPortPair(a, b PortID) PortPair {
	if a > b {
		a, b = b, a
	}
	return PortPair{A: a, B: b}
}

// PathMetrics are the three per-port-pair annotations a virtual fabric
// exposes (§3.2): latency, hop count, and available bandwidth of the best
// internal path connecting the two border ports.
type PathMetrics struct {
	Latency   time.Duration
	Hops      int
	Bandwidth float64 // available Mbps on the bottleneck link
	// Reachable is false when no internal path connects the pair.
	Reachable bool
}

// VFabric is a G-switch's virtual switch fabric: per-port-pair path metrics
// over the child region's internal topology (§3.2). The zero value is
// empty; construct with NewVFabric.
type VFabric struct {
	pairs map[PortPair]PathMetrics
}

// NewVFabric returns an empty fabric.
func NewVFabric() *VFabric {
	return &VFabric{pairs: make(map[PortPair]PathMetrics)}
}

// Set records metrics for a port pair (orientation-insensitive).
func (v *VFabric) Set(a, b PortID, m PathMetrics) {
	v.pairs[NewPortPair(a, b)] = m
}

// Get returns the metrics for a port pair.
func (v *VFabric) Get(a, b PortID) (PathMetrics, bool) {
	m, ok := v.pairs[NewPortPair(a, b)]
	return m, ok
}

// Len reports the number of annotated pairs.
func (v *VFabric) Len() int { return len(v.pairs) }

// Pairs returns the annotated pairs in deterministic order.
func (v *VFabric) Pairs() []PortPair {
	out := make([]PortPair, 0, len(v.pairs))
	for pp := range v.pairs {
		out = append(out, pp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Clone deep-copies the fabric.
func (v *VFabric) Clone() *VFabric {
	c := NewVFabric()
	for pp, m := range v.pairs {
		c.pairs[pp] = m
	}
	return c
}

// DiffExceeds reports whether any pair's available bandwidth differs from
// old by more than thresholdMbps — the trigger for a child to push a
// vFabric update to its parent (§3.2).
func (v *VFabric) DiffExceeds(old *VFabric, thresholdMbps float64) bool {
	if old == nil {
		return v.Len() > 0
	}
	if v.Len() != old.Len() {
		return true
	}
	for pp, m := range v.pairs {
		om, ok := old.pairs[pp]
		if !ok {
			return true
		}
		d := m.Bandwidth - om.Bandwidth
		if d < 0 {
			d = -d
		}
		if d > thresholdMbps {
			return true
		}
		if m.Reachable != om.Reachable {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (v *VFabric) String() string {
	var b strings.Builder
	b.WriteString("vfabric{")
	for i, pp := range v.Pairs() {
		if i > 0 {
			b.WriteString(", ")
		}
		m := v.pairs[pp]
		fmt.Fprintf(&b, "%d-%d:%dh/%v/%.0fM", pp.A, pp.B, m.Hops, m.Latency, m.Bandwidth)
	}
	b.WriteString("}")
	return b.String()
}

// GSwitchInfo describes a gigantic switch as exposed to a parent
// controller: its border ports and virtual fabric (§3.1).
type GSwitchInfo struct {
	ID DeviceID
	// Ports lists the exposed border ports with their provenance.
	Ports []GPort
	// Fabric holds the per-port-pair metrics.
	Fabric *VFabric
}

// GPort is one exposed border port of a G-switch. It remembers the
// underlying (child-level) attachment so the child controller can translate
// parent rules back down (§4.3).
type GPort struct {
	ID PortID
	// Underlying is the child-topology port this border port maps to.
	Underlying PortRef
	// External marks Internet/peering-facing ports.
	External bool
	// ExternalDomain is the peer domain for external ports.
	ExternalDomain string
	// GBS is set when the port attaches a G-BS rather than a border link.
	GBS DeviceID
}

// PortByID returns the GPort with the given ID, or nil.
func (g *GSwitchInfo) PortByID(id PortID) *GPort {
	for i := range g.Ports {
		if g.Ports[i].ID == id {
			return &g.Ports[i]
		}
	}
	return nil
}

// GBSInfo describes a gigantic base station exposed to a parent (§3.1).
type GBSInfo struct {
	ID DeviceID
	// AttachPort is the G-switch port the G-BS connects to.
	AttachPort PortID
	// Border marks G-BSes abstracting border BS groups, which must be
	// exposed one-to-one for fine-grained region optimization (§5.2).
	Border bool
	// Groups lists the underlying BS group IDs (or child G-BS IDs).
	Groups []DeviceID
	// Centroid is the radio-coverage centroid, used by region optimization.
	Centroid GeoPoint
}

// GMiddleboxInfo describes a gigantic middlebox: all instances of one type
// in a region (§3.1).
type GMiddleboxInfo struct {
	ID       DeviceID
	Type     MiddleboxType
	Capacity float64 // sum of constituent capacities
	Load     float64 // sum of constituent loads
	// AttachPorts lists G-switch ports the instances hang off.
	AttachPorts []PortID
}
