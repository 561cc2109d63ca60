package experiments

import (
	"fmt"
	"time"

	"repro/internal/dataplane"
	"repro/internal/discovery"
	"repro/internal/metrics"
	"repro/internal/nib"
	"repro/internal/reca"
)

// Figure 10 (§7.3): per-controller discovery convergence time, SoftMoW vs
// a flat single controller running standard LLDP discovery. "SoftMoW's
// controllers detect their topology between 44% and 58% faster compared to
// the flat discovery by the single controller."
//
// Table 1 (§7.3): what each controller discovered vs exposed; "the leaf
// controllers on average have exposed 20.75% of total ports ... 73% of
// total links are hidden at the root level."

// ControllerConvergence is one bar pair of Fig. 10.
type ControllerConvergence struct {
	Controller string
	SoftMoW    time.Duration
	Flat       time.Duration
	SpeedupPct float64
}

// DiscoveryOutcome is the Fig. 10 dataset.
type DiscoveryOutcome struct {
	PerController []ControllerConvergence
	FlatTotal     time.Duration
}

// AbstractionRow is one Table 1 row.
type AbstractionRow struct {
	Controller   string
	Switches     int
	Ports        int
	Links        int
	ExposedPorts int
	ExposedPct   float64
}

// AbstractionOutcome is the Table 1 dataset.
type AbstractionOutcome struct {
	Rows []AbstractionRow
	// AvgLeafExposedPct is the paper's 20.75% aggregate.
	AvgLeafExposedPct float64
	// RootHiddenLinkPct is the paper's 73% claim.
	RootHiddenLinkPct float64
}

// RunDiscoveryConvergence regenerates Fig. 10 from a composed evaluation.
func RunDiscoveryConvergence(ev *Eval) *DiscoveryOutcome {
	tp := discovery.DefaultTiming()

	// Leaf probes: one per physical switch port; a response returns when
	// the port has an intra-region link.
	var leafProbes []discovery.Probe
	totalPorts, totalLinkedPorts := 0, 0
	for _, leaf := range ev.H.Leaves {
		linked := linkedPorts(leaf.NIB)
		for _, d := range leaf.NIB.Devices(dataplane.KindSwitch) {
			for _, p := range d.Ports {
				if !p.Up || p.Radio != "" {
					continue
				}
				totalPorts++
				ref := dataplane.PortRef{Dev: d.ID, Port: p.ID}
				has := linked[ref]
				if has {
					totalLinkedPorts++
				}
				leafProbes = append(leafProbes, discovery.Probe{Owner: leaf.ID, HasLink: has})
			}
		}
	}
	leafFin := discovery.Convergence(leafProbes, tp, nil)

	// Root probes start after the slowest leaf (sequential bootstrap) and
	// relay through the child that exposes each border port.
	maxLeaf := time.Duration(0)
	for _, v := range leafFin {
		if v > maxLeaf {
			maxLeaf = v
		}
	}
	rootLinked := linkedPorts(ev.H.Root.NIB)
	var rootProbes []discovery.Probe
	for _, child := range ev.H.Root.Children() {
		gsw := child.GSwitchID()
		d, ok := ev.H.Root.NIB.Device(gsw)
		if !ok {
			continue
		}
		for _, p := range d.Ports {
			if p.Radio != "" || p.External {
				// The root still probes external ports (they produce no
				// response), matching LLDP behaviour.
				if p.Radio != "" {
					continue
				}
			}
			ref := dataplane.PortRef{Dev: gsw, Port: p.ID}
			rootProbes = append(rootProbes, discovery.Probe{
				Owner:   ev.H.Root.ID,
				Relays:  []string{child.ID},
				HasLink: rootLinked[ref],
			})
		}
	}
	rootFin := discovery.Convergence(rootProbes, tp, map[string]time.Duration{ev.H.Root.ID: maxLeaf})

	// Flat baseline: one controller probes every physical port; cross-
	// region link endpoints respond too.
	crossEndpoints := ev.H.Root.NIB.NumLinks() * 2
	flatFin := discovery.Convergence(
		discovery.FlatBaseline("flat", totalPorts, totalLinkedPorts+crossEndpoints), tp, nil)
	flat := flatFin["flat"]

	out := &DiscoveryOutcome{FlatTotal: flat}
	for _, leaf := range ev.H.Leaves {
		v := leafFin[leaf.ID]
		out.PerController = append(out.PerController, ControllerConvergence{
			Controller: leaf.ID, SoftMoW: v, Flat: flat,
			SpeedupPct: metrics.ReductionPct(float64(flat), float64(v)),
		})
	}
	rv := rootFin[ev.H.Root.ID]
	out.PerController = append(out.PerController, ControllerConvergence{
		Controller: ev.H.Root.ID, SoftMoW: rv, Flat: flat,
		SpeedupPct: metrics.ReductionPct(float64(flat), float64(rv)),
	})
	return out
}

func linkedPorts(n *nib.NIB) map[dataplane.PortRef]bool {
	out := make(map[dataplane.PortRef]bool)
	for _, l := range n.Links() {
		out[l.A] = true
		out[l.B] = true
	}
	return out
}

// RunAbstractionStats regenerates Table 1.
func RunAbstractionStats(ev *Eval) *AbstractionOutcome {
	out := &AbstractionOutcome{}
	var pctSum float64
	for _, leaf := range ev.H.Leaves {
		ab := leaf.Abstraction()
		row := AbstractionRow{
			Controller:   leaf.ID,
			Switches:     ab.Stats.Devices,
			Ports:        ab.Stats.Ports,
			Links:        ab.Stats.Links,
			ExposedPorts: ab.Stats.ExposedPorts,
			ExposedPct:   ab.Stats.ExposedPct(),
		}
		pctSum += row.ExposedPct
		out.Rows = append(out.Rows, row)
	}
	if len(ev.H.Leaves) > 0 {
		out.AvgLeafExposedPct = pctSum / float64(len(ev.H.Leaves))
	}
	rootAb := ev.H.Root.Abstraction()
	out.Rows = append(out.Rows, AbstractionRow{
		Controller:   ev.H.Root.ID,
		Switches:     rootAb.Stats.Devices,
		Ports:        rootAb.Stats.Ports,
		Links:        rootAb.Stats.Links,
		ExposedPorts: rootAb.Stats.ExposedPorts,
		ExposedPct:   rootAb.Stats.ExposedPct(),
	})
	out.RootHiddenLinkPct = reca.HiddenLinkPct(len(ev.Topo.Net.Links()), ev.H.Root.NIB.NumLinks())
	return out
}

// RenderDiscovery formats Fig. 10.
func RenderDiscovery(o *DiscoveryOutcome) string {
	t := metrics.NewTable("Figure 10 — Discovery convergence time",
		"Controller", "SoftMoW", "Flat", "Faster by")
	for _, c := range o.PerController {
		t.AddRow(c.Controller, c.SoftMoW.String(), c.Flat.String(),
			fmt.Sprintf("%.1f%%", c.SpeedupPct))
	}
	return t.String() + "(paper: controllers detect topology 44-58% faster than flat)\n"
}

// RenderAbstraction formats Table 1.
func RenderAbstraction(o *AbstractionOutcome) string {
	t := metrics.NewTable("Table 1 — SoftMoW controller abstractions",
		"Controller", "SW", "Ports", "Links", "Exposed", "Exposed %")
	for _, r := range o.Rows {
		t.AddRow(r.Controller, r.Switches, r.Ports, r.Links, r.ExposedPorts,
			fmt.Sprintf("%.1f", r.ExposedPct))
	}
	return t.String() + fmt.Sprintf(
		"Avg leaf exposed ports: %.2f%% (paper: 20.75%%)\nLinks hidden at root: %.1f%% (paper: 73%%)\n",
		o.AvgLeafExposedPct, o.RootHiddenLinkPct)
}
