// Package reca computes SoftMoW's recursive abstractions (§3.1–3.2): given
// a controller's NIB view and its radio/middlebox configuration, it builds
// the single G-switch (border ports + virtual fabric), the G-BSes (border
// BS groups exposed one-to-one, internal ones aggregated, §5.2), and one
// G-middlebox per middlebox type that the controller exposes to its parent.
//
// The same computation applies at every level: a leaf abstracts physical
// switches and BS groups; a non-leaf abstracts child G-switches and child
// G-BSes. Only the NIB contents differ.
package reca

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dataplane"
	"repro/internal/metrics"
	"repro/internal/nib"
	"repro/internal/routing"
)

// Recompute observability: how often abstractions are recomputed and how
// long the full recompute and its fabric fill take (§3.2 is the per-event
// hot path above the leaf level).
var (
	computeCount   = metrics.NewCounter("reca.compute.count")
	computeLatency = metrics.NewDurationHist("reca.compute.latency")
	fabricLatency  = metrics.NewDurationHist("reca.fabric.latency")
)

// RadioAttachment configures one radio device in the controller's scope: a
// physical BS group (leaf level) or a child-exposed G-BS (higher levels).
type RadioAttachment struct {
	ID dataplane.DeviceID
	// Attach is the switch port the radio device hangs off. Port 0 means
	// "the device itself" (leaf-level groups attach to their access switch
	// as a whole).
	Attach dataplane.PortRef
	// Border marks attachments that must be exposed one-to-one so
	// ancestors can run fine-grained region optimization (§5.2).
	Border bool
	// Centroid is the radio coverage centroid.
	Centroid dataplane.GeoPoint
	// Constituents lists underlying group IDs (itself, for leaf groups).
	Constituents []dataplane.DeviceID
}

// MiddleboxAttachment configures one middlebox instance (or child
// G-middlebox).
type MiddleboxAttachment struct {
	ID       dataplane.DeviceID
	Type     dataplane.MiddleboxType
	Attach   dataplane.PortRef
	Capacity float64
	Load     float64
}

// Config is the management-plane-supplied configuration for abstraction
// (§4.1: devices that do not speak the discovery protocol "can also be
// configured by the management plane").
type Config struct {
	Radios      []RadioAttachment
	Middleboxes []MiddleboxAttachment
}

// Stats summarizes what the controller discovered versus exposed — the
// Table 1 accounting.
type Stats struct {
	Devices      int
	Ports        int
	Links        int
	ExposedPorts int
}

// ExposedPct returns the Table 1 "Exposed Ports (%)" column.
func (s Stats) ExposedPct() float64 {
	if s.Ports == 0 {
		return 0
	}
	return float64(s.ExposedPorts) / float64(s.Ports) * 100
}

// Abstraction is the full set of logical entities a controller exposes.
type Abstraction struct {
	GSwitch      dataplane.GSwitchInfo
	GBSes        []dataplane.GBSInfo
	GMiddleboxes []dataplane.GMiddleboxInfo
	Stats        Stats
}

// GSwitchID names the G-switch a controller exposes.
func GSwitchID(controllerID string) dataplane.DeviceID {
	return dataplane.DeviceID("GS-" + controllerID)
}

// InternalGBSID names the aggregated internal G-BS (the "I_B" node of
// Fig. 7).
func InternalGBSID(controllerID string) dataplane.DeviceID {
	return dataplane.DeviceID("I-" + controllerID)
}

// ComputeWithGraph builds the abstraction for controller ctrlID from its
// NIB view and configuration, over an optional prebuilt routing graph of n
// (the controller's cached graph); pass nil to have the fabric fill build
// its own. The graph must reflect n's current contents.
func ComputeWithGraph(ctrlID string, n *nib.NIB, cfg Config, g *routing.Graph) Abstraction {
	start := time.Now()
	defer func() {
		computeCount.Inc()
		computeLatency.Observe(time.Since(start))
	}()
	ab := Abstraction{GSwitch: dataplane.GSwitchInfo{ID: GSwitchID(ctrlID)}}

	// Index link endpoints: ports with a discovered internal link are
	// hidden; the rest are border or attachment ports.
	linked := make(map[dataplane.PortRef]bool)
	for _, l := range n.Links() {
		linked[l.A] = true
		linked[l.B] = true
		ab.Stats.Links++
	}
	attach := make(map[dataplane.PortRef]bool)
	for _, r := range cfg.Radios {
		if r.Attach.Port != 0 {
			attach[r.Attach] = true
		}
	}
	for _, m := range cfg.Middleboxes {
		if m.Attach.Port != 0 {
			attach[m.Attach] = true
		}
	}

	devices := n.Devices(dataplane.KindUnknown)
	nextGPort := dataplane.PortID(1)
	addGPort := func(gp dataplane.GPort) dataplane.PortID {
		gp.ID = nextGPort
		nextGPort++
		ab.GSwitch.Ports = append(ab.GSwitch.Ports, gp)
		return gp.ID
	}

	for _, d := range devices {
		if d.Kind != dataplane.KindSwitch && d.Kind != dataplane.KindGSwitch {
			continue
		}
		ab.Stats.Devices++
		for _, p := range d.Ports {
			ref := dataplane.PortRef{Dev: d.ID, Port: p.ID}
			// Radio and middlebox attachment ports are not switch-fabric
			// ports in the Table 1 accounting.
			if p.Radio != "" || attach[ref] {
				continue
			}
			ab.Stats.Ports++
			if !p.Up || linked[ref] {
				continue
			}
			// External (Internet/peering) or dangling (cross-region) port:
			// expose as a border port.
			addGPort(dataplane.GPort{
				Underlying:     ref,
				External:       p.External,
				ExternalDomain: p.ExternalDomain,
			})
			ab.Stats.ExposedPorts++
		}
	}

	// Radio exposure (§5.2): border attachments one-to-one; internal ones
	// aggregated into a single internal G-BS.
	var internal []RadioAttachment
	radios := append([]RadioAttachment(nil), cfg.Radios...)
	sort.Slice(radios, func(i, j int) bool { return radios[i].ID < radios[j].ID })
	for _, r := range radios {
		if !r.Border {
			internal = append(internal, r)
			continue
		}
		port := addGPort(dataplane.GPort{Underlying: r.Attach, GBS: r.ID})
		ab.GBSes = append(ab.GBSes, dataplane.GBSInfo{
			ID: r.ID, AttachPort: port, Border: true,
			Groups: constituentsOf(r), Centroid: r.Centroid,
		})
	}
	if len(internal) > 0 {
		// One internal G-BS; its attach port maps to the first internal
		// attachment (translation fans out to all constituents).
		port := addGPort(dataplane.GPort{Underlying: internal[0].Attach, GBS: InternalGBSID(ctrlID)})
		gbs := dataplane.GBSInfo{ID: InternalGBSID(ctrlID), AttachPort: port}
		var cx, cy float64
		for _, r := range internal {
			gbs.Groups = append(gbs.Groups, constituentsOf(r)...)
			cx += r.Centroid.X
			cy += r.Centroid.Y
		}
		gbs.Centroid = dataplane.GeoPoint{X: cx / float64(len(internal)), Y: cy / float64(len(internal))}
		ab.GBSes = append(ab.GBSes, gbs)
	}

	// G-middleboxes: aggregate per type (§3.1).
	byType := make(map[dataplane.MiddleboxType][]MiddleboxAttachment)
	for _, m := range cfg.Middleboxes {
		byType[m.Type] = append(byType[m.Type], m)
	}
	for _, mt := range dataplane.MiddleboxTypes() {
		ms := byType[mt]
		if len(ms) == 0 {
			continue
		}
		g := dataplane.GMiddleboxInfo{
			ID:   dataplane.DeviceID(fmt.Sprintf("GM-%s-%s", ctrlID, mt)),
			Type: mt,
		}
		for _, m := range ms {
			g.Capacity += m.Capacity
			g.Load += m.Load
			port := addGPort(dataplane.GPort{Underlying: m.Attach})
			g.AttachPorts = append(g.AttachPorts, port)
		}
		ab.GMiddleboxes = append(ab.GMiddleboxes, g)
	}

	ab.GSwitch.Fabric = computeFabric(n, g, ab.GSwitch.Ports)
	return ab
}

func constituentsOf(r RadioAttachment) []dataplane.DeviceID {
	if len(r.Constituents) > 0 {
		return append([]dataplane.DeviceID(nil), r.Constituents...)
	}
	return []dataplane.DeviceID{r.ID}
}

// fabricWorkers bounds the SSSP worker pool used by computeFabric; tests
// override it to force serial or heavily contended fills.
var fabricWorkers = runtime.GOMAXPROCS(0)

// fabricParallelThreshold is the minimum number of SSSP sweeps worth
// spawning goroutines for; below it the fill runs serially.
const fabricParallelThreshold = 4

// computeFabric fills the vFabric with shortest-path metrics between every
// exposed port pair (§3.2). Attach ports with Underlying.Port == 0 resolve
// to any port of the underlying device (intra-switch traversal is free).
//
// One SSSP per exposed port fills the whole fabric row (O(P·E log V)
// instead of O(P²·E log V)), and because the routing graph is immutable
// once built, the per-port sweeps are embarrassingly parallel: they fan
// out across a bounded worker pool, then the rows are committed to the
// fabric sequentially in port order so the result stays deterministic.
func computeFabric(n *nib.NIB, g *routing.Graph, ports []dataplane.GPort) *dataplane.VFabric {
	start := time.Now()
	defer func() { fabricLatency.Observe(time.Since(start)) }()
	if g == nil {
		g = routing.BuildGraph(n)
	}
	fabric := dataplane.NewVFabric()
	resolve := func(gp dataplane.GPort) (dataplane.PortRef, bool) {
		ref := gp.Underlying
		if ref.Port != 0 {
			return ref, g.HasNode(ref)
		}
		d, ok := n.Device(ref.Dev)
		if !ok || len(d.Ports) == 0 {
			return dataplane.PortRef{}, false
		}
		return dataplane.PortRef{Dev: ref.Dev, Port: d.Ports[0].ID}, true
	}
	resolved := make([]dataplane.PortRef, len(ports))
	oks := make([]bool, len(ports))
	sweeps := 0
	for i := range ports {
		resolved[i], oks[i] = resolve(ports[i])
		// The last port's row is never read (pairs are filled for j > i).
		if oks[i] && i < len(ports)-1 {
			sweeps++
		}
	}
	rows := make([]map[dataplane.PortRef]dataplane.PathMetrics, len(ports))
	workers := fabricWorkers
	if workers > sweeps {
		workers = sweeps
	}
	if workers < 1 || sweeps < fabricParallelThreshold {
		workers = 1
	}
	if workers == 1 {
		for i := 0; i < len(ports)-1; i++ {
			if oks[i] {
				rows[i] = g.MetricsFrom(resolved[i])
			}
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					rows[i] = g.MetricsFrom(resolved[i])
				}
			}()
		}
		for i := 0; i < len(ports)-1; i++ {
			if oks[i] {
				idx <- i
			}
		}
		close(idx)
		wg.Wait()
	}
	for i := 0; i < len(ports); i++ {
		row := rows[i]
		for j := i + 1; j < len(ports); j++ {
			if !oks[i] || !oks[j] {
				fabric.Set(ports[i].ID, ports[j].ID, dataplane.PathMetrics{})
				continue
			}
			m, ok := row[resolved[j]]
			if !ok {
				m = dataplane.PathMetrics{}
			}
			fabric.Set(ports[i].ID, ports[j].ID, m)
		}
	}
	return fabric
}

// HiddenLinkPct returns the share of total physical links hidden from an
// ancestor that sees only visibleLinks of totalLinks (§7.3: "73% of total
// links are hidden at the root level").
func HiddenLinkPct(totalLinks, visibleLinks int) float64 {
	if totalLinks == 0 {
		return 0
	}
	return float64(totalLinks-visibleLinks) / float64(totalLinks) * 100
}
