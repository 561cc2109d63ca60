package workload

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/netem"
	"repro/internal/reca"
	"repro/internal/southbound"
)

// ControlPlane describes how a cluster realizes its control channels:
// direct in-process calls (the zero value), or the real southbound
// protocol over pipes shaped by a delay and an optional netem impairment
// profile. It is JSON-embeddable so region slices of a distributed run
// reproduce the launcher's exact channel conditions.
type ControlPlane struct {
	// Delay is the baseline one-way control-channel propagation delay
	// (the historical controlDelay); the impairment profile's own delay
	// and jitter layer on top of it.
	Delay time.Duration `json:"delay_ns,omitempty"`
	// Impair, when non-nil, applies the netem profile — jitter, loss,
	// reordering, rate caps, partition windows — to every leaf↔switch
	// channel. A non-nil profile forces protocol attachment even with a
	// zero Delay.
	Impair *netem.Profile `json:"impair,omitempty"`
	// Seed derives the per-link RNG streams; links are named by device ID,
	// so the same (seed, profile) reproduces the same drop/jitter sequence
	// per link regardless of build order.
	Seed int64 `json:"seed,omitempty"`
}

// protocol reports whether switches attach over the southbound protocol.
func (cp ControlPlane) protocol() bool { return cp.Delay > 0 || cp.Impair != nil }

// effective is the full per-link impairment profile: the netem profile
// with the baseline delay folded in.
func (cp ControlPlane) effective() netem.Profile {
	var p netem.Profile
	if cp.Impair != nil {
		p = *cp.Impair
	}
	p.Delay += cp.Delay
	return p
}

// controlLink records one impaired southbound channel for post-build
// reconfiguration (impairment activation, scheduled partitions) and
// stats aggregation.
type controlLink struct {
	Region int
	Dev    dataplane.DeviceID
	Conn   *southbound.ImpairedConn
}

// Region is one leaf region of a generated cluster.
type Region struct {
	// Leaf is the region's controller. In a region slice
	// (BuildRegionSlice) it is nil for regions owned by other processes;
	// the name fields below are populated for every region, because the
	// schedule references remote regions by name (inter-region handover
	// targets, remote prefixes).
	Leaf *core.Controller
	// Group is the region's border BS group; border groups are exposed to
	// the parent under their own ID, so Group doubles as the G-BS ID
	// inter-region handovers target.
	Group dataplane.DeviceID
	// BSes are the base stations camped on Group.
	BSes []dataplane.DeviceID
	// Prefix is the region's egress prefix.
	Prefix interdomain.PrefixID
	// Attach is the radio attachment port carrying Group.
	Attach dataplane.PortRef
	// Egress is the peering port Prefix exits through.
	Egress dataplane.PortRef
}

// Cluster is an N-region deployment the engine drives: diamond regions
// (access — two middles — egress) joined in a ring, one border group and
// one egress prefix per region, under a two-level hierarchy.
type Cluster struct {
	Net  *dataplane.Network
	Hier *core.Hierarchy
	// Regions spans the full cluster. In a region slice only
	// Regions[Lo:Hi] carry a Leaf (and Hier is nil — the root lives in
	// the launcher process, attached over the northbound wire).
	Regions []Region
	// Lo and Hi bound the regions this process owns: [0, len(Regions))
	// for a full in-process cluster.
	Lo, Hi int

	// devices and links record every protocol device and impaired pipe a
	// protocol attach created, and agents tracks the switch-agent serve
	// goroutines, so Close can tear the whole control plane down and
	// prove every goroutine exited.
	devices   []*core.ConnDevice
	links     []controlLink
	cp        ControlPlane
	agents    sync.WaitGroup
	closeOnce sync.Once
}

// The ring's shape, shared by the builder and by FinishDistRoot, which
// stitches the ring at a distributed root: region k is a diamond of
// access switch A<k>, middles M<k>a and M<k>b, and egress switch E<k>,
// and the ring link E<k> — A<k+1 mod R> joins it to the next region.
const (
	// ringLatency is the one-way latency of every ring link.
	ringLatency = 4 * time.Millisecond
	// linkMbps is the bandwidth of every link, diamond and ring alike.
	linkMbps = 10_000
)

func accessSwitch(k int) dataplane.DeviceID { return dataplane.DeviceID(fmt.Sprintf("A%d", k)) }
func egressSwitch(k int) dataplane.DeviceID { return dataplane.DeviceID(fmt.Sprintf("E%d", k)) }
func egressPoint(k int) string              { return fmt.Sprintf("X%d", k) }

// regionNames fills the deterministic name fields for region k.
func regionNames(k, bsPerRegion int) Region {
	bses := make([]dataplane.DeviceID, bsPerRegion)
	for j := range bses {
		bses[j] = dataplane.DeviceID(fmt.Sprintf("b%d-%d", k, j))
	}
	return Region{
		Group:  dataplane.DeviceID(fmt.Sprintf("g%d", k)),
		BSes:   bses,
		Prefix: interdomain.PrefixID(fmt.Sprintf("pfx%d", k)),
	}
}

// addRegionDataplane builds region k's diamond, radio port and egress
// point in the cluster's network, fills Regions[k]'s ports, and returns
// its leaf spec. Port numbering per switch is independent of which other
// regions exist in the network, which is what lets a region slice
// reproduce the exact features the full cluster's switches expose.
func (cl *Cluster) addRegionDataplane(k int) (core.LeafSpec, error) {
	net := cl.Net
	a, e := accessSwitch(k), egressSwitch(k)
	ma := dataplane.DeviceID(fmt.Sprintf("M%da", k))
	mb := dataplane.DeviceID(fmt.Sprintf("M%db", k))
	for _, id := range []dataplane.DeviceID{a, ma, mb, e} {
		net.AddSwitch(id)
	}
	for _, c := range []struct {
		x, y dataplane.DeviceID
		lat  time.Duration
	}{{a, ma, 2 * time.Millisecond}, {a, mb, 3 * time.Millisecond},
		{ma, e, 2 * time.Millisecond}, {mb, e, 3 * time.Millisecond}} {
		if _, err := net.Connect(c.x, c.y, c.lat, linkMbps); err != nil {
			return core.LeafSpec{}, err
		}
	}
	reg := &cl.Regions[k]
	rp, err := net.AddRadioPort(a, reg.Group)
	if err != nil {
		return core.LeafSpec{}, err
	}
	ep, err := net.AddEgress(egressPoint(k), e, fmt.Sprintf("isp%d", k))
	if err != nil {
		return core.LeafSpec{}, err
	}
	reg.Attach = dataplane.PortRef{Dev: a, Port: rp.ID}
	reg.Egress = dataplane.PortRef{Dev: e, Port: ep.Port}
	bsGroup := make(map[dataplane.DeviceID]dataplane.DeviceID, len(reg.BSes))
	for _, bs := range reg.BSes {
		bsGroup[bs] = reg.Group
	}
	return core.LeafSpec{
		ID:       fmt.Sprintf("L%d", k),
		Switches: []dataplane.DeviceID{a, ma, mb, e},
		Radios:   []reca.RadioAttachment{{ID: reg.Group, Attach: reg.Attach, Border: true}},
		BSGroup:  bsGroup,
	}, nil
}

// buildRing is the one body behind BuildCluster and BuildRegionSlice: it
// lays the [lo, hi) slice of the R-region ring in a fresh network and
// bootstraps each owned region's leaf, attached to no parent. Only the
// owned regions' switches exist; a ring link that leaves the slice is
// replaced by a stub port carrying the same port number and feature bits
// (up, internal, no radio) as its connected counterpart in the full
// ring, so a slice leaf's discovery, abstraction and G-switch exposure
// are byte-identical to the full build's — the property the
// replay-digest comparison relies on. Construction is deterministic:
// topology consumes no RNG.
func buildRing(regions, bsPerRegion, shards int, cp ControlPlane, lo, hi int) (*Cluster, error) {
	if regions < 2 {
		return nil, fmt.Errorf("workload: need at least 2 regions, got %d", regions)
	}
	if bsPerRegion < 1 {
		return nil, fmt.Errorf("workload: need at least 1 BS per region, got %d", bsPerRegion)
	}
	if lo < 0 || hi <= lo || hi > regions {
		return nil, fmt.Errorf("workload: bad region slice [%d, %d) of %d", lo, hi, regions)
	}
	net := dataplane.NewNetwork()
	cl := &Cluster{Net: net, Regions: make([]Region, regions), Lo: lo, Hi: hi, cp: cp}
	for k := range cl.Regions {
		cl.Regions[k] = regionNames(k, bsPerRegion)
	}
	specs := make([]core.LeafSpec, 0, hi-lo)
	for k := lo; k < hi; k++ {
		spec, err := cl.addRegionDataplane(k)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	// The ring, k = lo..hi-1: a link where both ends are owned, a stub
	// port in the same NextFreePort slot otherwise.
	full := hi-lo == regions
	for k := lo; k < hi; k++ {
		if k+1 < hi || full {
			if _, err := net.Connect(egressSwitch(k), accessSwitch((k+1)%regions), ringLatency, linkMbps); err != nil {
				return nil, err
			}
			continue
		}
		sw := net.Switch(egressSwitch(k))
		sw.AddPort(sw.NextFreePort())
	}
	if !full {
		// The ring-in port of the first owned region: its neighbor's
		// Connect would have added it in the full build.
		sw := net.Switch(accessSwitch(lo))
		sw.AddPort(sw.NextFreePort())
	}
	for k := lo; k < hi; k++ {
		leaf := core.NewController(specs[k-lo].ID, 1, k)
		if err := core.BootstrapLeaf(net, leaf, specs[k-lo]); err != nil {
			return nil, err
		}
		if shards != 0 {
			leaf.SetUEShardCount(shards)
		}
		cl.Regions[k].Leaf = leaf
	}
	return cl, nil
}

// BuildCluster constructs the R-region ring with bsPerRegion base
// stations per region and the given UE-store shard count on every
// controller (0 keeps core.DefaultUEShards): the full slice [0, R) under
// an in-process root. A control plane requesting protocol attachment
// (nonzero Delay or a netem profile) re-attaches every leaf's physical
// switches through the real southbound protocol over impaired pipes; the
// full impairment activates after construction. Link impairment streams
// derive from cp.Seed alone.
func BuildCluster(regions, bsPerRegion, shards int, cp ControlPlane) (*Cluster, error) {
	cl, err := buildRing(regions, bsPerRegion, shards, cp, 0, regions)
	if err != nil {
		return nil, err
	}
	cl.Hier = core.AssembleTwoLevel(cl.Net, NewDistRoot(regions, shards), cl.OwnedLeaves())
	return cl.finish()
}

// BuildRegionSlice constructs the [lo, hi) slice of the R-region ring for
// one region process of a distributed cluster. The cross-boundary
// connectivity lives only in the launcher's root NIB, which stitches
// G-switch-level ring links from the exposed ports (FinishDistRoot).
//
// Leaves are bootstrapped but not attached to any parent; the caller
// connects each to the launcher over the northbound wire and sequences
// interdomain propagation in region order.
func BuildRegionSlice(regions, bsPerRegion, shards int, cp ControlPlane, lo, hi int) (*Cluster, error) {
	cl, err := buildRing(regions, bsPerRegion, shards, cp, lo, hi)
	if err != nil {
		return nil, err
	}
	return cl.finish()
}

// finish completes a build: protocol attach of the owned leaves' switches
// when the control plane asks for it, the interdomain routes, then the
// full impairment.
func (cl *Cluster) finish() (*Cluster, error) {
	if cl.cp.protocol() {
		for k := cl.Lo; k < cl.Hi; k++ {
			if err := cl.attachProtocol(cl.Regions[k].Leaf, k); err != nil {
				return nil, err
			}
		}
	}
	cl.ReloadInterdomain()
	cl.ActivateImpairment()
	return cl, nil
}

// attachProtocol replaces region k's in-process switch adapters with
// protocol devices: a real agent per switch served over an in-memory
// pipe whose device→controller leg is shaped by an ImpairedConn — so
// the workload exercises the binary codec, the ConnDevice completion
// pipeline, and genuine WAN round-trip overlap rather than a per-call
// sleep. Attachment runs on the clean delay-only profile; the builders
// switch to the full impairment after construction (ActivateImpairment),
// so handshakes and discovery never race loss or partition windows.
func (cl *Cluster) attachProtocol(leaf *core.Controller, k int) error {
	for _, d := range leaf.Devices() {
		sw := cl.Net.Switch(d.ID())
		if sw == nil {
			continue // G-switch or other virtual device
		}
		agent := southbound.NewSwitchAgent(cl.Net, sw)
		ctrlEnd, devEnd := southbound.Pipe(256)
		rng := netem.LinkRNG(cl.cp.Seed, string(d.ID()))
		ic := southbound.NewImpairedConn(devEnd, netem.Profile{Delay: cl.cp.effective().Delay}, rng)
		cl.links = append(cl.links, controlLink{Region: k, Dev: d.ID(), Conn: ic})
		cl.agents.Add(1)
		go func() {
			defer cl.agents.Done()
			_ = agent.Serve(ic) //softmow:allow errdiscard the agent exits when its pipe dies; teardown is the only cause and the error carries no extra signal
		}()
		cd, err := core.DialDevice(ctrlEnd, leaf.ID)
		if err != nil {
			return fmt.Errorf("workload: dial %s: %w", d.ID(), err)
		}
		cl.devices = append(cl.devices, cd)
		leaf.AttachDevice(cd)
	}
	return nil
}

// ActivateImpairment switches every southbound link from the clean
// bootstrap profile to the cluster's full impairment profile. Builders
// call it once construction completes; callers may call it again after a
// SetProfile experiment to restore the configured conditions.
func (cl *Cluster) ActivateImpairment() {
	full := cl.cp.effective()
	for _, l := range cl.links {
		l.Conn.Link().SetProfile(full)
	}
}

// SetRegionDown hard-partitions (or heals) region k's southbound control
// channels — the scheduled-partition scenario's lever. It composes with
// the active profile: healing restores the impaired (not clean) channel.
func (cl *Cluster) SetRegionDown(k int, down bool) {
	for _, l := range cl.links {
		if l.Region == k {
			l.Conn.Link().SetDown(down)
		}
	}
}

// ImpairmentStats aggregates netem delivery and drop counts across every
// southbound link of the cluster.
func (cl *Cluster) ImpairmentStats() netem.Stats {
	var s netem.Stats
	for _, l := range cl.links {
		s.Add(l.Conn.Link().Stats())
	}
	return s
}

// Close tears down every protocol device and impaired pipe a protocol
// attach created and waits until all switch-agent and device goroutines
// have exited. It is a no-op for clusters built with direct in-process
// devices and safe to call more than once.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		for _, cd := range cl.devices {
			_ = cd.Close() //softmow:allow errdiscard teardown path; the pipe cannot fail to close and pending work is failed with ErrClosed by design
		}
		for _, l := range cl.links {
			_ = l.Conn.Close() //softmow:allow errdiscard teardown path; closing the impaired leg is idempotent and its error carries no extra signal
		}
		cl.agents.Wait()
		for _, cd := range cl.devices {
			cd.WaitStopped()
		}
	})
}

// ReloadInterdomain loads every owned region's route: its prefix exits
// via its own egress, entered at its own leaf. With an in-process root it
// first clears every controller's routes, then propagates them upward in
// region order; re-run it after a reconfiguration, since re-abstraction
// renumbers the exposed border ports the root's stored options reference.
// A region slice leaves propagation to the launcher, which sequences the
// pushes in region order over the wire (the root appends route options
// in push order, and the tie-break depends on it).
func (cl *Cluster) ReloadInterdomain() {
	if cl.Hier != nil {
		for _, c := range cl.Hier.All {
			c.ClearInterdomainRoutes()
		}
	}
	for k := cl.Lo; k < cl.Hi; k++ {
		r := &cl.Regions[k]
		r.Leaf.AddInterdomainRoutes([]interdomain.Route{{
			Prefix: r.Prefix, Egress: egressPoint(k), EgressSwitch: r.Egress.Dev,
			Metrics: interdomain.Metrics{Hops: 2, RTT: 8 * time.Millisecond},
		}}, r.Egress)
	}
	if cl.Hier != nil {
		for _, leaf := range cl.Hier.Leaves {
			leaf.PropagateInterdomain()
		}
	}
}

// OwnedLeaves lists the cluster's leaf controllers in region order — for
// a slice, only the owned ones.
func (cl *Cluster) OwnedLeaves() []*core.Controller {
	out := make([]*core.Controller, 0, cl.Hi-cl.Lo)
	for k := cl.Lo; k < cl.Hi; k++ {
		out = append(out, cl.Regions[k].Leaf)
	}
	return out
}
