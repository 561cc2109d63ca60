package chaos

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
)

// TestConcurrentMobilityStress hammers two regions with concurrent
// attach, intra- and inter-region handover, bearer teardown, and detach
// on a deliberately overlapping UE set (every worker draws from the same
// 48 UEs), then verifies the global invariants — no orphan rules, UE/path
// coherence, label depth ≤ 1 on every surviving bearer — and finally
// drains everything and asserts the data plane is empty. Run under -race
// this is the sharded UE store's interleaving torture test: the workers
// constantly collide on the same UEs, so correctness depends entirely on
// the per-UE operation locks.
func TestConcurrentMobilityStress(t *testing.T) {
	h, err := New(Options{Seed: 7, Regions: 2})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers   = 8
		opsPerW   = 300
		sharedUEs = 48
	)
	leaves := []*core.Controller{
		h.groupLeaf[h.cl.Regions[0].Group],
		h.groupLeaf[h.cl.Regions[1].Group],
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := simnet.RNG(7, fmt.Sprintf("stress/worker%d", w))
			for i := 0; i < opsPerW; i++ {
				ue := fmt.Sprintf("su%d", rng.Intn(sharedUEs))
				src := rng.Intn(2)
				reg, dst := &h.cl.Regions[src], &h.cl.Regions[1-src]
				// Every op may legitimately fail (the UE may be detached,
				// homed in the other region, or mid-collision); the point is
				// that no interleaving corrupts state, which the invariant
				// sweep below decides.
				switch rng.Intn(5) {
				case 0, 1: // attach / bearer re-setup
					// QoS 0 matches the harness's probe packets.
					_, _ = leaves[src].HandleBearerRequest(core.BearerRequest{
						UE: ue, BS: reg.BSes[rng.Intn(len(reg.BSes))],
						Prefix: reg.Prefix, QoS: 0,
					})
				case 2: // intra-region handover
					_ = leaves[src].Handover(ue, reg.Group, reg.BSes[rng.Intn(len(reg.BSes))])
				case 3: // inter-region handover
					_ = leaves[src].Handover(ue, dst.Group, dst.BSes[rng.Intn(len(dst.BSes))])
				case 4:
					if rng.Intn(2) == 0 {
						_ = leaves[src].DeactivateBearer(ue)
					} else {
						_ = leaves[src].Detach(ue)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stress: %v", err)
	}

	// Probe every surviving active bearer end to end: it must egress at
	// its prefix's peering port with label depth ≤ 1 (§4.3).
	for _, c := range h.cl.Hier.All {
		for _, rec := range c.UERecords() {
			if !rec.Active || rec.Group == "" {
				continue
			}
			res, err := h.probe(&bearer{UE: rec.UE, Group: rec.Group, Prefix: rec.Prefix})
			if err != nil {
				t.Fatalf("probe %s: %v", rec.UE, err)
			}
			if !h.probeOK(&bearer{UE: rec.UE, Group: rec.Group, Prefix: rec.Prefix}, res) {
				t.Fatalf("bearer %s after stress: disposition=%v egress=%v depth=%d",
					rec.UE, res.Disposition, res.EgressPort, res.MaxLabelDepth)
			}
		}
	}

	// Drain: detach every UE everywhere, then the data plane must be empty.
	for _, c := range h.cl.Hier.All {
		for _, rec := range c.UERecords() {
			if err := c.Detach(rec.UE); err != nil {
				t.Fatalf("drain detach %s at %s: %v", rec.UE, c.ID, err)
			}
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
	for _, c := range h.cl.Hier.All {
		if n := c.NumPaths(); n != 0 {
			t.Fatalf("%s still holds %d active paths after drain", c.ID, n)
		}
		if n := c.UECount(); n != 0 {
			t.Fatalf("%s still holds %d UE rows after drain", c.ID, n)
		}
	}
	for _, sw := range h.cl.Net.Switches() {
		if n := len(sw.Table.Rules()); n != 0 {
			t.Fatalf("switch %s still holds %d rules after drain", sw.ID, n)
		}
	}
}
