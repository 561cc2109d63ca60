package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/ha"
	"repro/internal/interdomain"
	"repro/internal/nib"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// bearerDemand is the per-bearer bandwidth reservation in Mbps, small
// enough that admission control never rejects under the default caps but
// nonzero so reservations are exercised through repair and teardown.
const bearerDemand = 5

// Options configures a harness run.
type Options struct {
	// Seed feeds the deterministic PRNG; the same seed replays the same
	// event sequence.
	Seed int64
	// Regions is the number of leaf regions in the ring (default 3, min 2).
	Regions int
	// MaxBearers caps concurrently active bearers (default 10 per region).
	MaxBearers int
	// SnapshotEvery checkpoints each pair's replica every N committed log
	// entries and truncates the log below the checkpoint's low-water mark;
	// 0 disables snapshotting, so promotion rebuilds replay the full
	// retained history.
	SnapshotEvery int
	// Verbose streams every event line to LogTo as it happens.
	Verbose bool
	// LogTo receives event lines when Verbose is set.
	LogTo io.Writer
}

// Stats counts what the harness injected and observed.
type Stats struct {
	Events          int
	BearersAdded    int
	BearerFailures  int
	Teardowns       int
	LinkFails       int
	LinkRestores    int
	Flaps           int
	SilentPortDowns int
	InstallFaults   int
	FaultsInjected  int
	Failovers       int
	Reconfigs       int
	Redos           int
	Retries         int
	// RedoneOnPromote counts unfinished log entries promoted standbys
	// re-executed; ReplayedOnPromote counts finished entries their replica
	// rebuilds replayed on top of a checkpoint (or genesis).
	RedoneOnPromote   int
	ReplayedOnPromote int
}

// bearer is one harness-tracked UE bearer.
type bearer struct {
	UE     string
	BS     dataplane.DeviceID
	Group  dataplane.DeviceID
	Prefix interdomain.PrefixID
	// Broken marks a bearer whose path could not be (re)established; its
	// traffic must punt until a restore heals the partition.
	Broken bool
}

// pendingBearer is the write-ahead-log payload for a bearer request logged
// but not processed before a master crash; the promoted standby redoes it.
type pendingBearer struct{ b *bearer }

// Harness owns the simulated deployment and the fault-event generator.
type Harness struct {
	opt  Options
	cl   *workload.Cluster
	sim  *simnet.Sim
	rng  *rand.Rand
	plan *FaultPlan

	pairs   map[string]*ha.Pair
	pairIDs []string

	groupLeaf map[dataplane.DeviceID]*core.Controller
	wrappers  map[dataplane.DeviceID]*FaultyDevice

	bearers map[string]*bearer
	nextUE  int
	nextSB  int

	events int
	log    []string
	stats  Stats
}

// New builds the workload's diamond ring (2 BSes per region, direct
// devices) with a FaultyDevice in front of every leaf's switch devices,
// then one HA pair per controller.
func New(opt Options) (*Harness, error) {
	if opt.Regions == 0 {
		opt.Regions = 3
	}
	if opt.MaxBearers == 0 {
		opt.MaxBearers = 10 * opt.Regions
	}
	cl, err := workload.BuildCluster(opt.Regions, 2, 0, workload.ControlPlane{})
	if err != nil {
		return nil, err
	}
	h := &Harness{
		opt:       opt,
		cl:        cl,
		sim:       simnet.New(),
		rng:       simnet.RNG(opt.Seed, "chaos-events"),
		plan:      &FaultPlan{},
		pairs:     make(map[string]*ha.Pair),
		groupLeaf: make(map[dataplane.DeviceID]*core.Controller),
		wrappers:  make(map[dataplane.DeviceID]*FaultyDevice),
		bearers:   make(map[string]*bearer),
	}
	for _, r := range cl.Regions {
		h.groupLeaf[r.Group] = r.Leaf
		// The inner adapter stays the switch's event hook (it carries the
		// controller back-pointer); the wrapper shadows it for installs.
		for _, d := range r.Leaf.Devices() {
			w := &FaultyDevice{Inner: d, Plan: h.plan}
			r.Leaf.AttachDevice(w)
			h.wrappers[d.ID()] = w
		}
	}
	h.buildPairs()
	return h, nil
}

// buildPairs starts one master/standby HA pair per controller, each with a
// replicated bearer state machine and (when configured) incremental
// snapshotting, and a replica-rebuilding promotion path.
func (h *Harness) buildPairs() {
	for _, c := range h.cl.Hier.All {
		store := ha.NewSharedStore()
		store.SnapshotEvery = h.opt.SnapshotEvery
		store.SetStateMachine(newBearerReplica())
		p := ha.NewPair(h.sim, store, c.ID+"-m", c.ID+"-s", h.redoFunc())
		p.NewReplica = func() ha.StateMachine { return newBearerReplica() }
		h.pairs[c.ID] = p
		h.pairIDs = append(h.pairIDs, c.ID)
	}
	sort.Strings(h.pairIDs)
}

// redoFunc is the promoted standby's WAL redo handler: it re-executes a
// bearer request the dead master logged but never finished. The returned
// error becomes the entry's recorded outcome, so a failed redo is marked
// failed in the log and skipped by replica rebuilds.
func (h *Harness) redoFunc() func(nib.LogEntry) error {
	return func(e nib.LogEntry) error {
		pb, ok := e.Payload.(*pendingBearer)
		if !ok || pb == nil {
			return nil
		}
		leaf := h.groupLeaf[pb.b.Group]
		if err := h.installBearer(leaf, pb.b); err != nil {
			h.stats.BearerFailures++
			h.logf("redo bearer-new %s FAILED: %v", pb.b.UE, err)
			return err
		}
		h.bearers[pb.b.UE] = pb.b
		h.stats.BearersAdded++
		h.logf("redo bearer-new %s g=%s pfx=%s", pb.b.UE, pb.b.Group, pb.b.Prefix)
		return nil
	}
}

// Stats returns a snapshot of the counters.
func (h *Harness) Stats() Stats { return h.stats }

// Run executes n randomized fault events, checking every invariant after
// each one. It returns the first violation, annotated with the event
// number and seed for replay.
func (h *Harness) Run(n int) error {
	if h.events == 0 {
		if err := h.CheckInvariants(); err != nil {
			return fmt.Errorf("chaos: pre-flight (seed %d): %w", h.opt.Seed, err)
		}
	}
	for i := 0; i < n; i++ {
		if err := h.step(); err != nil {
			return err
		}
	}
	return nil
}

func (h *Harness) step() error {
	h.events++
	h.stats.Events++
	h.advance()
	var err error
	switch kind := h.pickEvent(); kind {
	case evBearerNew:
		err = h.evBearerNew()
	case evBearerDel:
		err = h.evBearerDel()
	case evLinkDown:
		err = h.evLinkDown()
	case evLinkUp:
		err = h.evLinkUp()
	case evFlap:
		err = h.evFlap()
	case evPortDown:
		err = h.evPortDown()
	case evInstallFault:
		err = h.evInstallFault()
	case evFailover:
		err = h.evFailover()
	case evReconfig:
		err = h.evReconfig()
	}
	if err == nil {
		if perr := h.probeAndRedo(); perr != nil {
			err = perr
		}
	}
	if err == nil {
		err = h.CheckInvariants()
	}
	if err != nil {
		return fmt.Errorf("chaos: event %d (replay with seed %d): %w", h.events, h.opt.Seed, err)
	}
	return nil
}

// advance moves virtual time forward 20–150 ms so heartbeats, failover
// detection, and promotions interleave with the data-plane events.
func (h *Harness) advance() {
	d := time.Duration(20+h.rng.Intn(131)) * time.Millisecond
	h.sim.RunUntil(h.sim.Now() + d)
}

const (
	evBearerNew = iota
	evBearerDel
	evLinkDown
	evLinkUp
	evFlap
	evPortDown
	evInstallFault
	evFailover
	evReconfig
)

// pickEvent draws the next event kind from the currently applicable set.
func (h *Harness) pickEvent() int {
	type cand struct{ kind, weight int }
	var cands []cand
	if len(h.bearers) < h.opt.MaxBearers {
		cands = append(cands, cand{evBearerNew, 4})
	}
	if len(h.bearers) > 0 {
		cands = append(cands, cand{evBearerDel, 2})
	}
	// Cap concurrent failures at two links so the network keeps healing:
	// with the whole ring down nothing routes and reconfigurations (which
	// need a consistent abstraction, i.e. all links up) never fire.
	if len(h.upLinks()) > 0 && len(h.downLinks()) < 2 {
		cands = append(cands, cand{evLinkDown, 3}, cand{evFlap, 2}, cand{evPortDown, 1})
	}
	if len(h.downLinks()) > 0 {
		cands = append(cands, cand{evLinkUp, 5})
	}
	cands = append(cands, cand{evInstallFault, 2}, cand{evFailover, 1})
	if h.allLinksUp() {
		cands = append(cands, cand{evReconfig, 2})
	}
	total := 0
	for _, c := range cands {
		total += c.weight
	}
	r := h.rng.Intn(total)
	for _, c := range cands {
		if r < c.weight {
			return c.kind
		}
		r -= c.weight
	}
	return evBearerNew
}

func (h *Harness) upLinks() []*dataplane.Link {
	var out []*dataplane.Link
	for _, l := range h.cl.Net.Links() {
		if l.Up() {
			out = append(out, l)
		}
	}
	return out
}

func (h *Harness) downLinks() []*dataplane.Link {
	var out []*dataplane.Link
	for _, l := range h.cl.Net.Links() {
		if !l.Up() {
			out = append(out, l)
		}
	}
	return out
}

func (h *Harness) allLinksUp() bool { return len(h.downLinks()) == 0 }

func linkName(l *dataplane.Link) string {
	return fmt.Sprintf("%s:%d-%s:%d", l.A.Dev, l.A.Port, l.B.Dev, l.B.Port)
}

func (h *Harness) sortedBearers() []string {
	out := make([]string, 0, len(h.bearers))
	for ue := range h.bearers {
		out = append(out, ue)
	}
	sort.Strings(out)
	return out
}

// newBearer draws a fresh bearer: a random BS group, one of its base
// stations, and a random destination prefix (possibly in another region,
// forcing delegation to the root).
func (h *Harness) newBearer() *bearer {
	regions := h.cl.Regions
	reg := &regions[h.rng.Intn(len(regions))]
	bs := reg.BSes[h.rng.Intn(len(reg.BSes))]
	prefix := regions[h.rng.Intn(len(regions))].Prefix
	h.nextUE++
	return &bearer{UE: fmt.Sprintf("ue%04d", h.nextUE), BS: bs, Group: reg.Group, Prefix: prefix}
}

// installBearer issues the mobility-app bearer request at the given leaf.
func (h *Harness) installBearer(leaf *core.Controller, b *bearer) error {
	_, err := leaf.HandleBearerRequest(core.BearerRequest{
		UE: b.UE, BS: b.BS, Prefix: b.Prefix, QoS: 0,
		Constraints: routing.Constraints{MinBandwidth: bearerDemand},
		Objective:   routing.MinHops,
	})
	return err
}

// requestBearer routes the request through the owning leaf's HA pair so
// every bearer event follows the §6 log-process-done discipline.
func (h *Harness) requestBearer(b *bearer) error {
	leaf := h.groupLeaf[b.Group]
	return h.pairs[leaf.ID].HandleEvent("bearer-new", &pendingBearer{b: b}, func() error {
		return h.installBearer(leaf, b)
	})
}

// deactivate tears a bearer down through the owning leaf's HA pair.
func (h *Harness) deactivate(b *bearer) error {
	leaf := h.groupLeaf[b.Group]
	return h.pairs[leaf.ID].HandleEvent("bearer-del", b.UE, func() error {
		return leaf.DeactivateBearer(b.UE)
	})
}

func (h *Harness) evBearerNew() error {
	b := h.newBearer()
	if err := h.requestBearer(b); err != nil {
		h.stats.BearerFailures++
		h.logf("bearer-new %s g=%s pfx=%s FAILED: %v", b.UE, b.Group, b.Prefix, err)
		return nil // acceptable while partitioned; invariants still checked
	}
	h.bearers[b.UE] = b
	h.stats.BearersAdded++
	h.logf("bearer-new %s g=%s pfx=%s", b.UE, b.Group, b.Prefix)
	return nil
}

func (h *Harness) evBearerDel() error {
	ues := h.sortedBearers()
	b := h.bearers[ues[h.rng.Intn(len(ues))]]
	if err := h.deactivate(b); err != nil {
		return fmt.Errorf("teardown of %s failed: %w", b.UE, err)
	}
	delete(h.bearers, b.UE)
	h.stats.Teardowns++
	h.logf("bearer-del %s", b.UE)
	return nil
}

// setLink flips one physical link. Endpoint switch hooks deliver the
// port-status events to the owning leaves; for cross-region links the
// harness additionally relays the status to the root against the exposed
// G-switch border ports, standing in for the RecA vport-status path.
func (h *Harness) setLink(l *dataplane.Link, up bool) {
	h.cl.Net.SetLinkState(l, up)
	la, lb := h.cl.Hier.LeafOf(l.A.Dev), h.cl.Hier.LeafOf(l.B.Dev)
	if la == nil || lb == nil || la == lb {
		return
	}
	root := h.cl.Hier.Root
	if gp, ok := la.ExposedPortFor(l.A); ok {
		root.HandlePortStatus(la.GSwitchID(), gp, up)
	}
	if gp, ok := lb.ExposedPortFor(l.B); ok {
		root.HandlePortStatus(lb.GSwitchID(), gp, up)
	}
}

// repairAt triggers §6 path repair at the level owning the failed link.
func (h *Harness) repairAt(l *dataplane.Link) {
	la, lb := h.cl.Hier.LeafOf(l.A.Dev), h.cl.Hier.LeafOf(l.B.Dev)
	if la != nil && la == lb {
		rep, failed := la.HandleLinkFailure(l.A.Dev, l.A.Port)
		h.logf("  repair@%s: %d rerouted, %d failed", la.ID, len(rep), len(failed))
		return
	}
	root := h.cl.Hier.Root
	if la != nil {
		if gp, ok := la.ExposedPortFor(l.A); ok {
			rep, failed := root.HandleLinkFailure(la.GSwitchID(), gp)
			h.logf("  repair@root: %d rerouted, %d failed", len(rep), len(failed))
			return
		}
	}
	if lb != nil {
		if gp, ok := lb.ExposedPortFor(l.B); ok {
			rep, failed := root.HandleLinkFailure(lb.GSwitchID(), gp)
			h.logf("  repair@root: %d rerouted, %d failed", len(rep), len(failed))
		}
	}
}

func (h *Harness) evLinkDown() error {
	ups := h.upLinks()
	l := ups[h.rng.Intn(len(ups))]
	h.logf("link-down %s", linkName(l))
	h.setLink(l, false)
	h.repairAt(l)
	h.stats.LinkFails++
	return nil
}

func (h *Harness) evLinkUp() error {
	downs := h.downLinks()
	l := downs[h.rng.Intn(len(downs))]
	h.setLink(l, true)
	h.stats.LinkRestores++
	h.logf("link-up %s", linkName(l))
	return nil
}

func (h *Harness) evFlap() error {
	ups := h.upLinks()
	l := ups[h.rng.Intn(len(ups))]
	h.logf("flap %s", linkName(l))
	for i := 0; i < 2; i++ {
		h.setLink(l, false)
		h.repairAt(l)
		h.setLink(l, true)
	}
	h.stats.Flaps++
	return nil
}

// evPortDown takes a link down without informing the repair path — only
// the port-status events fire. Affected bearers blackhole until the
// per-event probe sweep notices and re-routes them.
func (h *Harness) evPortDown() error {
	ups := h.upLinks()
	l := ups[h.rng.Intn(len(ups))]
	h.setLink(l, false)
	h.stats.SilentPortDowns++
	h.logf("port-down %s (no repair trigger)", linkName(l))
	return nil
}

func (h *Harness) evInstallFault() error {
	skip := h.rng.Intn(3)
	h.plan.Arm(skip)
	b := h.newBearer()
	err := h.requestBearer(b)
	fired := h.plan.Disarm()
	if fired {
		h.stats.FaultsInjected++
	}
	h.stats.InstallFaults++
	if err != nil {
		h.stats.BearerFailures++
		h.logf("install-fault(skip=%d fired=%t) bearer-new %s FAILED: %v", skip, fired, b.UE, err)
		return nil // the no-orphan invariant verifies the rollback
	}
	h.bearers[b.UE] = b
	h.stats.BearersAdded++
	h.logf("install-fault(skip=%d fired=%t) bearer-new %s ok", skip, fired, b.UE)
	return nil
}

// evFailover crashes one controller's master mid-event: a bearer request
// is logged (write-ahead) but not processed, the master dies, and the
// promoted standby must redo it. A fresh standby then re-arms the pair.
func (h *Harness) evFailover() error {
	id := h.pairIDs[h.rng.Intn(len(h.pairIDs))]
	pair := h.pairs[id]
	pb := &pendingBearer{b: h.newBearer()}
	pair.LogOnly("bearer-new", pb)
	pair.KillMaster()
	h.logf("failover %s (bearer %s logged, unprocessed)", id, pb.b.UE)
	h.sim.RunUntil(h.sim.Now() + 600*time.Millisecond)
	if n := pair.MasterCount(); n != 1 {
		return fmt.Errorf("pair %s has %d masters after failover", id, n)
	}
	ps := pair.LastPromotion()
	if !ps.Converged {
		return fmt.Errorf("pair %s replica diverged on promotion (snapshot seq %d, %d replayed)",
			id, ps.Rebuild.SnapshotSeq, ps.Rebuild.Replayed)
	}
	h.stats.RedoneOnPromote += ps.Redone
	h.stats.ReplayedOnPromote += ps.Rebuild.Replayed
	h.nextSB++
	pair.AttachStandby(fmt.Sprintf("%s-sb%d", id, h.nextSB), h.redoFunc())
	h.stats.Failovers++
	return nil
}

// evReconfig runs the §5.3.2 protocol: drain the group's bearers, hand its
// access switch to another leaf, refresh the root's derived state and
// interdomain snapshot, and re-request the drained bearers at the target.
func (h *Harness) evReconfig() error {
	reg := &h.cl.Regions[h.rng.Intn(len(h.cl.Regions))]
	src := h.groupLeaf[reg.Group]
	var dsts []*core.Controller
	for _, leaf := range h.cl.Hier.Leaves {
		if leaf != src {
			dsts = append(dsts, leaf)
		}
	}
	dst := dsts[h.rng.Intn(len(dsts))]

	var drained []*bearer
	for _, ue := range h.sortedBearers() {
		b := h.bearers[ue]
		if b.Group != reg.Group {
			continue
		}
		if err := h.deactivate(b); err != nil {
			return fmt.Errorf("reconfig drain of %s: %w", ue, err)
		}
		delete(h.bearers, ue)
		drained = append(drained, b)
	}
	// Re-home the moved access switch's event hook first: the transfer
	// protocol runs discovery on both leaves, and the inner adapter (not
	// the wrapper) carries the controller back-pointer, so it must point
	// at the target before those discovery rounds. The transfer's own
	// AttachDevice then shadows the inner with the wrapper again for the
	// install path, exactly as at construction.
	dst.AttachDevice(h.wrappers[reg.Attach.Dev].Inner)
	if err := h.cl.Hier.TransferBorderGroup(reg.Group, src, dst); err != nil {
		return fmt.Errorf("reconfig %s %s->%s: %w", reg.Group, src.ID, dst.ID, err)
	}
	h.groupLeaf[reg.Group] = dst
	core.RefreshDerived(h.cl.Hier.Root)
	h.cl.ReloadInterdomain()
	h.stats.Reconfigs++
	h.logf("reconfig %s %s->%s (%d bearers re-homed)", reg.Group, src.ID, dst.ID, len(drained))
	for _, b := range drained {
		if err := h.requestBearer(b); err != nil {
			b.Broken = true
			h.stats.BearerFailures++
			h.logf("  re-home %s FAILED: %v", b.UE, err)
		}
		h.bearers[b.UE] = b
	}
	return nil
}

// probe injects one packet for the bearer at its group's radio attachment
// and walks the data plane.
func (h *Harness) probe(b *bearer) (dataplane.TraversalResult, error) {
	leaf := h.groupLeaf[b.Group]
	attach, ok := leaf.AttachOfGroup(b.Group)
	if !ok {
		return dataplane.TraversalResult{}, fmt.Errorf("group %s has no attachment at %s", b.Group, leaf.ID)
	}
	return h.cl.Net.Inject(attach.Dev, attach.Port,
		&dataplane.Packet{UE: b.UE, DstPrefix: string(b.Prefix), QoS: 0})
}

// expectedEgress returns the peering port traffic for a prefix must exit.
func (h *Harness) expectedEgress(p interdomain.PrefixID) dataplane.PortRef {
	for _, r := range h.cl.Regions {
		if r.Prefix == p {
			return r.Egress
		}
	}
	return dataplane.PortRef{}
}

func (h *Harness) probeOK(b *bearer, res dataplane.TraversalResult) bool {
	return res.Disposition == dataplane.DispEgressed &&
		res.EgressPort == h.expectedEgress(b.Prefix) &&
		res.MaxLabelDepth <= 1
}

// expectPunt verifies a broken bearer's traffic reaches the control plane
// for recomputation instead of blackholing or looping (§6).
func (h *Harness) expectPunt(b *bearer) error {
	res, err := h.probe(b)
	if err != nil {
		return err
	}
	if res.Disposition != dataplane.DispPunted {
		return fmt.Errorf("broken bearer %s: disposition %v, want punted", b.UE, res.Disposition)
	}
	return nil
}

// probeAndRedo is invariant 3's enforcement sweep: every active bearer
// must egress correctly with label depth ≤ 1; bearers that do not are
// re-routed (deactivate + re-request) exactly once, and bearers that
// cannot be re-routed are marked broken and must punt until healed.
// Broken bearers are retried first, so restores heal them promptly.
func (h *Harness) probeAndRedo() error {
	for _, ue := range h.sortedBearers() {
		b := h.bearers[ue]
		if b.Broken {
			if err := h.requestBearer(b); err == nil {
				b.Broken = false
				h.stats.Retries++
				h.logf("  retry %s restored", ue)
			} else {
				if perr := h.expectPunt(b); perr != nil {
					return perr
				}
				continue
			}
		}
		res, err := h.probe(b)
		if err != nil {
			return err
		}
		if h.probeOK(b, res) {
			continue
		}
		h.stats.Redos++
		if err := h.deactivate(b); err != nil {
			return fmt.Errorf("redo of %s: deactivate: %w", ue, err)
		}
		if err := h.requestBearer(b); err != nil {
			b.Broken = true
			h.logf("  bearer %s broken: %v", ue, err)
			if perr := h.expectPunt(b); perr != nil {
				return perr
			}
			continue
		}
		res, err = h.probe(b)
		if err != nil {
			return err
		}
		if !h.probeOK(b, res) {
			return fmt.Errorf("bearer %s unreachable after redo: disposition=%v egress=%v labeldepth=%d",
				ue, res.Disposition, res.EgressPort, res.MaxLabelDepth)
		}
		h.logf("  redo %s rerouted", ue)
	}
	return nil
}

func (h *Harness) logf(format string, args ...interface{}) {
	line := fmt.Sprintf("[%8s #%04d] ", h.sim.Now(), h.events) + fmt.Sprintf(format, args...)
	h.log = append(h.log, line)
	if h.opt.Verbose && h.opt.LogTo != nil {
		fmt.Fprintln(h.opt.LogTo, line)
	}
}
