package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/ltetrace"
	"repro/internal/simnet"
)

// OpKind enumerates the mobility operations the engine drives.
type OpKind uint8

const (
	// OpAttach attaches a detached UE (first bearer setup).
	OpAttach OpKind = iota
	// OpBearerSetup re-establishes an idle attached UE's bearer.
	OpBearerSetup
	// OpBearerTeardown deactivates an active UE's bearer (UE goes idle).
	OpBearerTeardown
	// OpHandoverIntra moves an active UE to another BS in its region.
	OpHandoverIntra
	// OpHandoverInter moves an active UE to a BS in another region.
	OpHandoverInter
	// OpDetach removes a UE from the network (final teardown).
	OpDetach
	numOpKinds = 6
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpAttach:
		return "attach"
	case OpBearerSetup:
		return "bearer_setup"
	case OpBearerTeardown:
		return "bearer_teardown"
	case OpHandoverIntra:
		return "handover_intra"
	case OpHandoverInter:
		return "handover_inter"
	case OpDetach:
		return "detach"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// OpKinds lists every kind in deterministic report order.
func OpKinds() []OpKind {
	return []OpKind{OpAttach, OpBearerSetup, OpBearerTeardown, OpHandoverIntra, OpHandoverInter, OpDetach}
}

// Op is one scheduled mobility operation. Regions and BSes are indices
// into the cluster layout; the UE index names "ue<UE>".
type Op struct {
	Seq    int
	Kind   OpKind
	UE     int
	Region int // region whose leaf executes the op (the UE's serving leaf)
	BS     int // serving/target BS index within Region
	Dst    int // target region (inter handover), else unused
	DstBS  int // target BS within Dst (inter handover), else unused
	Prefix int // region index whose egress prefix the bearer targets
}

// UEName renders a UE index as its wire identifier: "ue" and the index
// zero-padded to seven characters, sign included — fmt's "ue%07d",
// without fmt's cost on the per-op path.
func UEName(ue int) string {
	var buf [32]byte
	b := append(buf[:0], "ue"...)
	width, u := 7, uint64(ue)
	if ue < 0 {
		b = append(b, '-')
		width, u = 6, -u
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// TraceLine renders the op as one line of the replayable event trace.
func (o Op) TraceLine() string {
	switch o.Kind {
	case OpHandoverInter:
		return fmt.Sprintf("%d %s ue%07d r%d b%d -> r%d b%d", o.Seq, o.Kind, o.UE, o.Region, o.BS, o.Dst, o.DstBS)
	default:
		return fmt.Sprintf("%d %s ue%07d r%d b%d pfx%d", o.Seq, o.Kind, o.UE, o.Region, o.BS, o.Prefix)
	}
}

// Mix weights the operation kinds in the generated schedule. Weights are
// relative; kinds with no eligible UE at a draw are skipped and the rest
// renormalized, so the realized mix tracks the weights only as population
// state allows (nothing can detach before something attaches).
type Mix struct {
	Attach         float64
	BearerSetup    float64
	BearerTeardown float64
	HandoverIntra  float64
	HandoverInter  float64
	Detach         float64
}

// DefaultMix is a churn-heavy blend that keeps all six operations flowing
// once the population warms up.
func DefaultMix() Mix {
	return Mix{Attach: 30, BearerSetup: 12, BearerTeardown: 12,
		HandoverIntra: 25, HandoverInter: 8, Detach: 13}
}

// weights returns the mix as a kind-indexed vector.
func (m Mix) weights() [numOpKinds]float64 {
	return [numOpKinds]float64{
		OpAttach:         m.Attach,
		OpBearerSetup:    m.BearerSetup,
		OpBearerTeardown: m.BearerTeardown,
		OpHandoverIntra:  m.HandoverIntra,
		OpHandoverInter:  m.HandoverInter,
		OpDetach:         m.Detach,
	}
}

// MixFromLTE derives an operation mix and per-BS attach weights from an
// internal/ltetrace diurnal model at the given minute of day. The model's
// per-BS UE-arrival, bearer, and handover rates set the relative attach,
// setup/teardown, and handover weights (teardown mirrors setup and detach
// mirrors attach so the population stays stationary); the per-BS weight
// vector (length regions*bsPerRegion, model BS i ↔ region i/bsPerRegion,
// slot i%bsPerRegion) skews attach and handover targets toward hot cells.
func MixFromLTE(p ltetrace.Params, minute, regions, bsPerRegion int) (Mix, []float64) {
	p.NumBS = regions * bsPerRegion
	m := ltetrace.New(p)
	var bearer, arrival, ho float64
	weights := make([]float64, p.NumBS)
	for i := 0; i < p.NumBS; i++ {
		bearer += m.BearerRate(i, minute)
		arrival += m.UEArrivalRate(i, minute)
		ho += m.HandoverRate(i, minute)
		weights[i] = m.UEArrivalRate(i, minute) + m.BearerRate(i, minute)
	}
	// §7.1: most handovers are intra-group; split the aggregate 80/20.
	mix := Mix{
		Attach:         arrival,
		Detach:         arrival,
		BearerSetup:    bearer,
		BearerTeardown: bearer,
		HandoverIntra:  ho * 0.8,
		HandoverInter:  ho * 0.2,
	}
	return mix, weights
}

// UE generator-side lifecycle states.
const (
	ueDetached = iota
	ueActive   // attached with an installed bearer path
	ueIdle     // attached, bearer deactivated
	ueRoamed   // handed over out of its serving leaf's region (§5.2: the
	// row stays at the source leaf with Group cleared; only detach applies)
	numUEStates
)

// uePool is an O(1) insert/remove/sample set of UE indices in one state.
type uePool struct {
	ids []int
	pos []int // pos[ue] is ue's index in ids, -1 when absent
}

func newUEPool(n int) *uePool {
	p := &uePool{pos: make([]int, n)}
	for i := range p.pos {
		p.pos[i] = -1
	}
	return p
}

func (p *uePool) add(ue int) {
	p.pos[ue] = len(p.ids)
	p.ids = append(p.ids, ue)
}

func (p *uePool) remove(ue int) {
	i := p.pos[ue]
	last := len(p.ids) - 1
	p.ids[i] = p.ids[last]
	p.pos[p.ids[i]] = i
	p.ids = p.ids[:last]
	p.pos[ue] = -1
}

// sample returns a uniformly random member without removing it.
func (p *uePool) sample(rng *rand.Rand) int {
	return p.ids[rng.Intn(len(p.ids))]
}

func (p *uePool) len() int { return len(p.ids) }

// ueGenState is the generator's logical view of one UE.
type ueGenState struct {
	state  uint8
	region uint16 // serving leaf region
	bs     uint16 // serving BS slot within region
	prefix uint16 // bearer target prefix (region index)
}

// Generator expands (seed, config) into a deterministic op schedule.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	ues     []ueGenState
	pools   [numUEStates]*uePool
	weights [numOpKinds]float64
	// bsCum is the cumulative per-BS weight distribution (uniform when the
	// config carries no LTE model), flattened region-major.
	bsCum []float64
}

// NewGenerator prepares a generator for the config's population.
func NewGenerator(cfg Config) *Generator {
	g := &Generator{
		cfg:     cfg,
		rng:     simnet.RNG(cfg.Seed, "workload/gen"),
		ues:     make([]ueGenState, cfg.UEs),
		weights: cfg.Mix.weights(),
	}
	for s := 0; s < numUEStates; s++ {
		g.pools[s] = newUEPool(cfg.UEs)
	}
	for ue := 0; ue < cfg.UEs; ue++ {
		g.pools[ueDetached].add(ue)
	}
	nBS := cfg.Regions * cfg.BSPerRegion
	g.bsCum = make([]float64, nBS)
	cum := 0.0
	for i := 0; i < nBS; i++ {
		w := 1.0
		if i < len(cfg.BSWeights) && cfg.BSWeights[i] > 0 {
			w = cfg.BSWeights[i]
		}
		cum += w
		g.bsCum[i] = cum
	}
	return g
}

// sampleBS draws a (region, bs-slot) pair from the per-BS weight
// distribution.
func (g *Generator) sampleBS() (region, bs int) {
	x := g.rng.Float64() * g.bsCum[len(g.bsCum)-1]
	lo, hi := 0, len(g.bsCum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.bsCum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo / g.cfg.BSPerRegion, lo % g.cfg.BSPerRegion
}

// eligible reports whether a kind has a UE to act on right now.
func (g *Generator) eligible(k OpKind) bool {
	switch k {
	case OpAttach:
		return g.pools[ueDetached].len() > 0
	case OpBearerSetup:
		return g.pools[ueIdle].len() > 0
	case OpBearerTeardown, OpHandoverInter:
		return g.pools[ueActive].len() > 0
	case OpHandoverIntra:
		return g.pools[ueActive].len() > 0 && g.cfg.BSPerRegion > 1
	case OpDetach:
		return g.pools[ueActive].len()+g.pools[ueIdle].len()+g.pools[ueRoamed].len() > 0
	default:
		return false
	}
}

// pickKind draws an operation kind from the mix, restricted to kinds with
// an eligible UE.
func (g *Generator) pickKind() (OpKind, bool) {
	var total float64
	for k := 0; k < numOpKinds; k++ {
		if g.weights[k] > 0 && g.eligible(OpKind(k)) {
			total += g.weights[k]
		}
	}
	if total == 0 {
		return 0, false
	}
	x := g.rng.Float64() * total
	for k := 0; k < numOpKinds; k++ {
		if g.weights[k] <= 0 || !g.eligible(OpKind(k)) {
			continue
		}
		x -= g.weights[k]
		if x < 0 {
			return OpKind(k), true
		}
	}
	return OpDetach, true // float roundoff: last eligible kind
}

// GenerateSchedule normalizes the config and expands its schedule without
// building a cluster — for trace dumps and offline inspection.
func GenerateSchedule(cfg Config) ([]Op, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return NewGenerator(cfg).Generate(), nil
}

// Generate expands the schedule. It is the only RNG consumer in the
// package: execution replays the returned slice verbatim.
func (g *Generator) Generate() []Op {
	ops := make([]Op, 0, g.cfg.Events)
	for seq := 0; seq < g.cfg.Events; seq++ {
		kind, ok := g.pickKind()
		if !ok {
			break // zero mix or empty population
		}
		op := Op{Seq: seq, Kind: kind}
		switch kind {
		case OpAttach:
			ue := g.pools[ueDetached].sample(g.rng)
			region, bs := g.sampleBS()
			prefix := region
			if g.rng.Float64() < g.cfg.RemotePrefixShare {
				prefix = g.rng.Intn(g.cfg.Regions)
			}
			st := &g.ues[ue]
			st.region, st.bs, st.prefix = uint16(region), uint16(bs), uint16(prefix)
			g.move(ue, ueDetached, ueActive)
			op.UE, op.Region, op.BS, op.Prefix = ue, region, bs, prefix
		case OpBearerSetup:
			ue := g.pools[ueIdle].sample(g.rng)
			st := &g.ues[ue]
			g.move(ue, ueIdle, ueActive)
			op.UE, op.Region, op.BS, op.Prefix = ue, int(st.region), int(st.bs), int(st.prefix)
		case OpBearerTeardown:
			ue := g.pools[ueActive].sample(g.rng)
			st := &g.ues[ue]
			g.move(ue, ueActive, ueIdle)
			op.UE, op.Region, op.BS, op.Prefix = ue, int(st.region), int(st.bs), int(st.prefix)
		case OpHandoverIntra:
			ue := g.pools[ueActive].sample(g.rng)
			st := &g.ues[ue]
			nb := g.rng.Intn(g.cfg.BSPerRegion - 1)
			if nb >= int(st.bs) {
				nb++
			}
			op.UE, op.Region, op.BS, op.Prefix = ue, int(st.region), nb, int(st.prefix)
			st.bs = uint16(nb)
		case OpHandoverInter:
			ue := g.pools[ueActive].sample(g.rng)
			st := &g.ues[ue]
			dst := g.rng.Intn(g.cfg.Regions - 1)
			if dst >= int(st.region) {
				dst++
			}
			dstBS := g.rng.Intn(g.cfg.BSPerRegion)
			op.UE, op.Region, op.BS = ue, int(st.region), int(st.bs)
			op.Dst, op.DstBS, op.Prefix = dst, dstBS, int(st.prefix)
			// §5.2: the UE row stays at the source leaf with Group cleared;
			// until it detaches, the source leaf remains its serving leaf.
			g.move(ue, ueActive, ueRoamed)
		case OpDetach:
			ue, from := g.pickDetachable()
			st := &g.ues[ue]
			g.move(ue, from, ueDetached)
			op.UE, op.Region, op.BS, op.Prefix = ue, int(st.region), int(st.bs), int(st.prefix)
		}
		ops = append(ops, op)
	}
	return ops
}

// pickDetachable samples across the three attached pools proportionally.
func (g *Generator) pickDetachable() (ue, state int) {
	na, ni, nr := g.pools[ueActive].len(), g.pools[ueIdle].len(), g.pools[ueRoamed].len()
	x := g.rng.Intn(na + ni + nr)
	switch {
	case x < na:
		return g.pools[ueActive].sample(g.rng), ueActive
	case x < na+ni:
		return g.pools[ueIdle].sample(g.rng), ueIdle
	default:
		return g.pools[ueRoamed].sample(g.rng), ueRoamed
	}
}

func (g *Generator) move(ue, from, to int) {
	g.pools[from].remove(ue)
	g.pools[to].add(ue)
	g.ues[ue].state = uint8(to)
}
