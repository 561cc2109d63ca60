package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netem"
)

// Mode selects how the engine paces the schedule.
type Mode string

const (
	// ModeClosed lets every lane issue its next operation the moment the
	// previous one completes — the throughput-probe mode.
	ModeClosed Mode = "closed"
	// ModeOpen admits operations at a target arrival rate under a bounded
	// in-flight window, counting backpressure stalls.
	ModeOpen Mode = "open"
)

// Config parameterizes one workload run. The zero value is not usable;
// normalize fills defaults and validates.
type Config struct {
	Seed        int64
	Regions     int
	BSPerRegion int
	UEs         int
	Events      int
	// Shards is the UE-store stripe count applied to every controller
	// (normalize turns 0 into core.DefaultUEShards).
	Shards int
	Mode   Mode
	// Workers is the number of execution lanes. Operations are keyed to
	// lanes by UE, so same-UE operations execute in schedule order while
	// distinct UEs proceed in parallel.
	Workers int
	// MaxInFlight bounds admitted-but-unfinished operations. In open-loop
	// mode it is the admission window; in closed-loop mode it sets the
	// per-lane pipeline depth (MaxInFlight/Workers, min 1): each lane
	// keeps that many distinct-UE operations in flight, overlapping their
	// southbound round trips while same-UE operations stay ordered.
	MaxInFlight int
	// RatePerSec is the open-loop target arrival rate; 0 means admit as
	// fast as the window allows.
	RatePerSec float64
	Mix        Mix
	// BSWeights optionally skews attach/handover targets per BS
	// (region-major, length Regions*BSPerRegion); nil means uniform.
	BSWeights []float64
	// RemotePrefixShare is the probability an attach targets a uniformly
	// random region's prefix instead of the serving region's own — the
	// knob that exercises cross-region transit paths.
	RemotePrefixShare float64
	// ControlDelay emulates the controller↔switch control-channel
	// propagation delay (0 = direct in-process devices). With a nonzero
	// delay every physical switch attaches over the real southbound
	// protocol — an agent served over a pipe whose replies are held back
	// by an impaired conn — so operations are I/O-bound and throughput
	// scaling comes from pipelining fences across devices and from
	// overlapping waits across concurrent UEs.
	ControlDelay time.Duration
	// Impair layers a netem impairment profile (jitter, loss, reordering,
	// rate caps, partition windows) onto every leaf↔switch control
	// channel. A non-nil profile forces protocol attachment even when
	// ControlDelay is zero; its delay and jitter add on top of
	// ControlDelay. Per-link randomness derives from Seed.
	Impair *netem.Profile
}

// EffectiveProfile is the full per-link southbound impairment profile
// this config produces — the netem profile with ControlDelay folded in —
// echoed into reports as scenario provenance.
func (c *Config) EffectiveProfile() netem.Profile { return c.controlPlane().effective() }

// controlPlane assembles the cluster control-plane description from the
// config's channel knobs.
func (c *Config) controlPlane() ControlPlane {
	return ControlPlane{Delay: c.ControlDelay, Impair: c.Impair, Seed: c.Seed}
}

// normalize applies defaults in place and validates the config.
func (c *Config) normalize() error {
	if c.Regions < 2 {
		return fmt.Errorf("workload: need at least 2 regions, got %d", c.Regions)
	}
	if c.BSPerRegion < 1 {
		c.BSPerRegion = 1
	}
	if c.UEs < 1 {
		return fmt.Errorf("workload: need at least 1 UE, got %d", c.UEs)
	}
	if c.Events < 1 {
		return fmt.Errorf("workload: need at least 1 event, got %d", c.Events)
	}
	if c.Shards < 1 {
		c.Shards = core.DefaultUEShards
	}
	if c.Mode == "" {
		c.Mode = ModeClosed
	}
	if c.Mode != ModeClosed && c.Mode != ModeOpen {
		return fmt.Errorf("workload: unknown mode %q", c.Mode)
	}
	if c.Workers < 1 {
		// Lanes are I/O-bound whenever ControlDelay is set (each op sleeps
		// through its southbound round trips), so the useful lane count is
		// well above the core count.
		c.Workers = 4 * runtime.GOMAXPROCS(0)
		if c.Workers < 8 {
			c.Workers = 8
		}
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 4 * c.Workers
	}
	if c.Mix == (Mix{}) {
		c.Mix = DefaultMix()
	}
	return nil
}

// OpStats summarizes one operation kind over a run.
type OpStats struct {
	Count    int64         `json:"count"`
	Failures int64         `json:"failures"`
	Mean     time.Duration `json:"mean_ns"`
	P50      time.Duration `json:"p50_ns"`
	P99      time.Duration `json:"p99_ns"`
	Max      time.Duration `json:"max_ns"`
}

// Result is the outcome of one Engine.Run.
type Result struct {
	// Ops is the executed schedule, in generation order.
	Ops []Op
	// Elapsed is the wall-clock execution time (generation excluded).
	Elapsed time.Duration
	// Stalls counts open-loop admissions that found the in-flight window
	// full and had to wait (backpressure events).
	Stalls int64
	// Failures is the total failed operations; FirstErr retains one
	// representative error for diagnostics.
	Failures int64
	FirstErr error
	// PerOp maps kind → stats, keyed by OpKind.String().
	PerOp map[string]OpStats
}

// EventsPerSec is the sustained execution rate.
func (r *Result) EventsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(len(r.Ops)) / r.Elapsed.Seconds()
}

// Engine executes a generated schedule against a cluster.
type Engine struct {
	cfg Config
	cl  *Cluster

	// Latency histograms are per-engine instances (not the process-global
	// metrics registry) so repeated runs in one process don't pollute each
	// other — cmd/loadgen runs its impair-matrix scenarios back to back.
	hists    [numOpKinds]metrics.DurationHist
	fails    [numOpKinds]atomic.Int64
	stalls   atomic.Int64
	firstErr atomic.Pointer[opError]
	// tokens is the open-loop in-flight window: buffered to MaxInFlight,
	// one send per admission, one receive per completion.
	tokens chan struct{}
	// wrap, when set, intercepts every op execution (SetExecWrapper).
	wrap ExecWrapper
}

// ExecWrapper intercepts one op execution: it receives the op and a next
// function that performs the real dispatch, and returns the op's outcome.
// The failover driver uses it to route every op through the HA write-ahead
// log and to hold ops hostage across a planned master crash. A wrapper
// must call next at most once and must preserve per-UE completion order
// (an op's wrapper invocation only returns once the op's effects are
// visible), or the replayable state digest breaks.
type ExecWrapper func(op Op, next func() error) error

// SetExecWrapper installs the exec interceptor. Call before Run; the
// engine does not synchronize wrapper replacement with in-flight ops.
func (e *Engine) SetExecWrapper(w ExecWrapper) { e.wrap = w }

type opError struct {
	op  Op
	err error
}

// NewEngine validates the config, builds the cluster, and prepares the
// engine. The caller reads cluster state (digests, invariants) after Run.
func NewEngine(cfg Config) (*Engine, *Cluster, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	cl, err := BuildCluster(cfg.Regions, cfg.BSPerRegion, cfg.Shards, cfg.controlPlane())
	if err != nil {
		return nil, nil, err
	}
	return &Engine{cfg: cfg, cl: cl}, cl, nil
}

// NewEngineOn prepares an engine over an already built cluster — the
// region-slice path, where the caller has connected the slice's leaves to
// a remote parent before any load runs. The caller must pass RunOps only
// ops whose Region the cluster owns.
func NewEngineOn(cfg Config, cl *Cluster) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, cl: cl}, nil
}

// OwnedOps filters a generated schedule down to the ops this cluster
// executes: those targeting regions in [Lo, Hi). Per-UE order is
// preserved; an op's execution never depends on another region's ops
// because roamed UEs stay pinned to their source region's leaf.
func (cl *Cluster) OwnedOps(ops []Op) []Op {
	if cl.Lo == 0 && cl.Hi == len(cl.Regions) {
		return ops
	}
	out := make([]Op, 0, len(ops)/(len(cl.Regions)/(cl.Hi-cl.Lo))+1)
	for _, op := range ops {
		if op.Region >= cl.Lo && op.Region < cl.Hi {
			out = append(out, op)
		}
	}
	return out
}

// wallClock reads the wall clock for latency measurement only; nothing
// replayable (schedule, UE state, digests) depends on the value.
func wallClock() time.Time {
	return time.Now() //softmow:allow determinism latency measurement only, never feeds replayable state
}

// Run generates the schedule and executes it, returning measurements.
// The schedule and the final logical UE-table state depend only on
// (seed, config); timings and stall counts are measurements.
func (e *Engine) Run() *Result {
	return e.RunOps(NewGenerator(e.cfg).Generate())
}

// RunOps executes a pre-generated (possibly region-filtered) schedule.
// Distributed runs generate the full schedule in every process from the
// shared (seed, config) and hand each engine its owned subset.
func (e *Engine) RunOps(ops []Op) *Result {
	start := wallClock()
	if e.cfg.Mode == ModeClosed {
		e.runClosed(ops)
	} else {
		e.runOpen(ops)
	}
	elapsed := wallClock().Sub(start)

	res := &Result{
		Ops:     ops,
		Elapsed: elapsed,
		Stalls:  e.stalls.Load(),
		PerOp:   make(map[string]OpStats, numOpKinds),
	}
	for _, k := range OpKinds() {
		s := e.hists[k].Snapshot()
		res.Failures += e.fails[k].Load()
		if s.Count == 0 && e.fails[k].Load() == 0 {
			continue
		}
		res.PerOp[k.String()] = OpStats{
			Count:    s.Count,
			Failures: e.fails[k].Load(),
			Mean:     s.Mean,
			P50:      s.P50,
			P99:      s.P99,
			Max:      s.Max,
		}
	}
	if fe := e.firstErr.Load(); fe != nil {
		res.FirstErr = fmt.Errorf("op %d (%s ue%07d): %w", fe.op.Seq, fe.op.Kind, fe.op.UE, fe.err)
	}
	return res
}

// lane keys an op to its execution lane; same UE, same lane, so per-UE
// schedule order is preserved without per-op coordination.
func (e *Engine) lane(op Op) int { return op.UE % e.cfg.Workers }

// runClosed partitions the schedule into per-lane slices and drains them
// concurrently. Each lane pipelines up to MaxInFlight/Workers operations:
// ops for distinct UEs overlap their southbound round trips, while ops
// for the same UE chain on the previous one's completion so per-UE
// schedule order — the property the replayable state digest depends on —
// is preserved exactly as in the serial engine.
func (e *Engine) runClosed(ops []Op) {
	lanes := make([][]Op, e.cfg.Workers)
	for _, op := range ops {
		l := e.lane(op)
		lanes[l] = append(lanes[l], op)
	}
	window := e.cfg.MaxInFlight / e.cfg.Workers
	if window < 1 {
		window = 1
	}
	var wg sync.WaitGroup
	for _, lane := range lanes {
		if len(lane) == 0 {
			continue
		}
		wg.Add(1)
		go func(lane []Op) {
			defer wg.Done()
			e.drainLane(lane, window)
		}(lane)
	}
	wg.Wait()
}

// drainLane executes one lane's ops with the given pipeline depth.
func (e *Engine) drainLane(lane []Op, window int) {
	if window == 1 {
		for _, op := range lane {
			e.execTimed(op)
		}
		return
	}
	sem := make(chan struct{}, window)
	// waits chains same-UE ops: each op waits on the completion of the
	// UE's previously issued op before executing. A blocked op holds its
	// window slot, but the head of every wait chain is always running, so
	// the lane cannot deadlock.
	waits := make(map[int]chan struct{}, window)
	for _, op := range lane {
		prev := waits[op.UE]
		done := make(chan struct{})
		waits[op.UE] = done
		sem <- struct{}{}
		go func(op Op, prev, done chan struct{}) {
			defer func() {
				<-sem
				close(done)
			}()
			if prev != nil {
				<-prev
			}
			e.execTimed(op)
		}(op, prev, done)
	}
	for i := 0; i < window; i++ {
		sem <- struct{}{}
	}
}

// runOpen admits the schedule in order: each op waits for its paced
// arrival time (if RatePerSec > 0) and an in-flight token, then is handed
// to its lane. Lane channels are sized to the window, so the token pool is
// the only admission bound.
func (e *Engine) runOpen(ops []Op) {
	e.tokens = make(chan struct{}, e.cfg.MaxInFlight)
	chans := make([]chan Op, e.cfg.Workers)
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan Op, e.cfg.MaxInFlight)
		wg.Add(1)
		go func(ch chan Op) {
			defer wg.Done()
			for op := range ch {
				e.execTimed(op)
				<-e.tokens
			}
		}(chans[i])
	}
	start := wallClock()
	for _, op := range ops {
		if e.cfg.RatePerSec > 0 {
			due := start.Add(time.Duration(float64(op.Seq) / e.cfg.RatePerSec * float64(time.Second)))
			if d := due.Sub(wallClock()); d > 0 {
				time.Sleep(d)
			}
		}
		select {
		case e.tokens <- struct{}{}:
		default:
			// Window full: the network is slower than the offered load.
			e.stalls.Add(1)
			e.tokens <- struct{}{}
		}
		chans[e.lane(op)] <- op
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
}

// execTimed runs one op and records its latency and outcome.
func (e *Engine) execTimed(op Op) {
	t0 := wallClock()
	var err error
	if e.wrap != nil {
		err = e.wrap(op, func() error { return e.exec(op) })
	} else {
		err = e.exec(op)
	}
	e.hists[op.Kind].Observe(wallClock().Sub(t0))
	if err != nil {
		e.fails[op.Kind].Add(1)
		e.firstErr.CompareAndSwap(nil, &opError{op: op, err: err})
	}
}

// exec dispatches one op to the UE's serving leaf.
func (e *Engine) exec(op Op) error {
	r := &e.cl.Regions[op.Region]
	ue := UEName(op.UE)
	switch op.Kind {
	case OpAttach, OpBearerSetup:
		_, err := r.Leaf.HandleBearerRequest(core.BearerRequest{
			UE: ue, BS: r.BSes[op.BS],
			Prefix: e.cl.Regions[op.Prefix].Prefix, QoS: 1,
		})
		return err
	case OpBearerTeardown:
		return r.Leaf.DeactivateBearer(ue)
	case OpHandoverIntra:
		return r.Leaf.Handover(ue, r.Group, r.BSes[op.BS])
	case OpHandoverInter:
		d := &e.cl.Regions[op.Dst]
		return r.Leaf.Handover(ue, d.Group, d.BSes[op.DstBS])
	case OpDetach:
		return r.Leaf.Detach(ue)
	default:
		return fmt.Errorf("workload: unknown op kind %d", op.Kind)
	}
}
