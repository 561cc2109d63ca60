// Command softmow runs the full SoftMoW stack end-to-end on a synthetic
// cellular WAN: it generates a RocketFuel-class topology, partitions it
// into leaf regions, bootstraps the recursive controller hierarchy
// (discovery → abstraction → interdomain routes), admits UE bearers
// through the mobility application, drives real packets through the
// programmed data plane, performs intra- and inter-region handovers, and
// prints per-controller statistics.
//
//	softmow -switches 64 -regions 4 -bs 60 -ues 24
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/experiments"
	"repro/internal/interdomain"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

func main() {
	switches := flag.Int("switches", 64, "core switch count")
	regions := flag.Int("regions", 4, "leaf region count")
	bs := flag.Int("bs", 60, "base station count")
	ues := flag.Int("ues", 24, "UE bearers to admit")
	seed := flag.Int64("seed", 42, "random seed")
	flag.Parse()

	if err := run(*switches, *regions, *bs, *ues, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "softmow: %v\n", err)
		os.Exit(1)
	}
}

func run(switches, regions, bs, ues int, seed int64) error {
	fmt.Printf("Composing cellular WAN: %d switches, %d regions, %d base stations...\n",
		switches, regions, bs)
	ev, err := experiments.BuildEval(experiments.Params{
		Seed: seed, Switches: switches, Regions: regions, BS: bs,
		Prefixes: 200, Egress: (regions + 1) / 2, UEs: 100000,
	})
	if err != nil {
		return err
	}
	h := ev.H

	fmt.Printf("Hierarchy: root + %d leaves; root discovered %d inter-G-switch links\n",
		len(h.Leaves), h.Root.NIB.NumLinks())
	for _, leaf := range h.Leaves {
		ab := leaf.Abstraction()
		fmt.Printf("  %s: %d switches, %d links, %d border ports exposed (%.1f%%)\n",
			leaf.ID, ab.Stats.Devices, ab.Stats.Links, ab.Stats.ExposedPorts, ab.Stats.ExposedPct())
	}

	// Admit bearers: one UE per sampled base station, prefix by index.
	fmt.Printf("\nAdmitting %d UE bearers...\n", ues)
	rng := simnet.RNG(seed, "softmow-demo")
	prefixes := ev.Table.Prefixes()
	type admitted struct {
		ue    string
		leaf  *core.Controller
		radio dataplane.PortRef
		pfx   interdomain.PrefixID
		qos   int
	}
	var flows []admitted
	delivered, local, delegated := 0, 0, 0
	for i := 0; i < ues; i++ {
		bsID := ev.Model.BSIDs[rng.Intn(len(ev.Model.BSIDs))]
		group := ev.Model.GroupOf[bsID]
		leaf := h.Leaves[ev.GroupRegion[group]]
		ue := fmt.Sprintf("ue%04d", i)
		pfx := prefixes[rng.Intn(len(prefixes))]
		qos := 1 + i%4
		rec, err := leaf.HandleBearerRequest(core.BearerRequest{
			UE: ue, BS: bsID, Prefix: pfx, QoS: qos,
		})
		if err != nil {
			fmt.Printf("  %s via %s: REJECTED (%v)\n", ue, leaf.ID, err)
			continue
		}
		if rec.HandledBy == leaf {
			local++
		} else {
			delegated++
		}
		flows = append(flows, admitted{ue: ue, leaf: leaf, radio: ev.GroupAttach[group], pfx: pfx, qos: qos})
	}
	fmt.Printf("  admitted %d (locally routed: %d, delegated to root: %d)\n",
		len(flows), local, delegated)

	// Drive packets through the physical data plane and verify the §4.3
	// single-label invariant.
	maxDepth := 0
	for _, f := range flows {
		pkt := &dataplane.Packet{UE: f.ue, DstPrefix: string(f.pfx), QoS: f.qos}
		res, err := ev.Topo.Net.Inject(f.radio.Dev, f.radio.Port, pkt)
		if err != nil {
			return err
		}
		if res.Disposition == dataplane.DispEgressed {
			delivered++
		}
		if res.MaxLabelDepth > maxDepth {
			maxDepth = res.MaxLabelDepth
		}
	}
	fmt.Printf("\nDrove %d packets: %d egressed to the Internet, max on-link label depth %d (invariant: ≤1)\n",
		len(flows), delivered, maxDepth)

	// Trace replay: two peak-hour minutes of the synthetic LTE trace
	// through the live control plane (bearers, intra/inter-region
	// handovers, packet validation).
	fmt.Println("\nReplaying 2 peak-hour trace minutes through the control plane...")
	stats, err := experiments.ReplayTrace(ev, 13*60, 13*60+2, 0.01)
	if err != nil {
		return err
	}
	fmt.Printf("  %d events: %d bearers admitted (%d rejected), %d intra-region + %d inter-region handovers\n",
		stats.Events, stats.Bearers, stats.BearerFailures, stats.IntraHandovers, stats.InterHandovers)
	fmt.Printf("  %d/%d packets egressed; max on-link label depth %d\n",
		stats.Delivered, stats.Delivered+stats.Undelivered, stats.MaxLabelDepth)

	// Controller statistics.
	t := metrics.NewTable("\nController statistics",
		"Controller", "Level", "Rules", "Translated", "Bearers", "Delegated", "Links")
	for _, c := range append(append([]*core.Controller{}, h.Leaves...), h.Root) {
		s := c.StatsSnapshot()
		t.AddRow(c.ID, c.Level, s.RulesInstalled, s.RulesTranslated,
			s.BearersHandled, s.DelegatedRequests, s.LinksDiscovered)
	}
	fmt.Println(t.String())
	return nil
}
