// Package netem models impaired WAN control channels: a seed-deterministic
// link-impairment pipeline (one-way delay, jitter, i.i.d. and burst loss,
// reordering, rate caps with queue-overflow drops, scheduled partition
// windows) expressed as composable Profiles and applied by a Link delivery
// scheduler.
//
// SoftMoW's controller tree spans a continent-scale cellular WAN, so the
// control channel between a leaf controller and its switches — and between
// a child controller and its parent — is itself a WAN path. A clean
// fixed-delay model (the constant-delay conn wrapper netem replaced)
// answers none of the operational questions the paper raises: do barrier
// fences, discovery convergence, and handover latency degrade gracefully
// when the WAN does?
// netem provides the missing axis: impairment profiles with the fidelity
// of Linux tc-netem (delay/jitter/loss/reorder/rate) but driven by an
// injectable clock and a per-link seeded RNG so replay digests stay
// byte-identical across runs.
//
// Layering: netem knows nothing about the southbound message types — a
// Link carries opaque payloads to a sink function. The southbound package
// adapts Conn endpoints onto Links (ImpairedConn), keeping exactly one
// delivery-scheduling implementation in the tree.
package netem

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/simnet"
)

// ErrClosed is returned by Link.Send after Close.
var ErrClosed = errors.New("netem: link closed")

// JitterDist selects the jitter distribution of a Profile.
type JitterDist string

// Jitter distributions. Uniform draws an extra delay uniformly from
// [0, Jitter); Normal draws |N(0, Jitter)| (half-normal, so Jitter is the
// scale parameter and the tail is unbounded — FIFO chaining in the Link
// keeps late draws from reordering frames unless Reorder fires).
const (
	JitterUniform JitterDist = "uniform"
	JitterNormal  JitterDist = "normal"
)

// GilbertElliott parameterizes the two-state burst-loss channel model:
// the chain moves good→bad with probability PGB per frame and bad→good
// with PBG, dropping frames with probability LossGood in the good state
// and LossBad in the bad state. The stationary loss rate is
// LossGood·PBG/(PGB+PBG) + LossBad·PGB/(PGB+PBG).
type GilbertElliott struct {
	// PGB is the per-frame good→bad transition probability.
	PGB float64 `json:"p_gb"`
	// PBG is the per-frame bad→good transition probability.
	PBG float64 `json:"p_bg"`
	// LossGood is the drop probability while in the good state
	// (usually 0 or small).
	LossGood float64 `json:"loss_good,omitempty"`
	// LossBad is the drop probability while in the bad state
	// (usually large — bursts).
	LossBad float64 `json:"loss_bad"`
}

// Window is a scheduled partition interval in link-local time (time since
// the link's scheduler epoch): frames sent with From ≤ now < To are
// dropped as if the link were physically cut.
type Window struct {
	// From is the inclusive start of the partition.
	From time.Duration `json:"from"`
	// To is the exclusive end of the partition.
	To time.Duration `json:"to"`
}

// Profile is a composable description of one-way link impairment. The
// zero value is a clean, zero-delay link. All fields are JSON-tagged so a
// profile can cross the multi-process region-config wire verbatim.
type Profile struct {
	// Delay is the fixed one-way propagation delay added to every frame.
	Delay time.Duration `json:"delay,omitempty"`
	// Jitter is the scale of the random extra delay per frame (see
	// JitterDist for the distribution).
	Jitter time.Duration `json:"jitter,omitempty"`
	// Dist selects the jitter distribution; empty means JitterUniform.
	Dist JitterDist `json:"jitter_dist,omitempty"`
	// Loss is the i.i.d. per-frame drop probability in [0,1). Ignored
	// when GE is set — the burst model subsumes it.
	Loss float64 `json:"loss,omitempty"`
	// GE, when non-nil, replaces i.i.d. loss with the Gilbert–Elliott
	// burst-loss chain.
	GE *GilbertElliott `json:"ge,omitempty"`
	// Reorder is the probability that a frame is exempted from FIFO
	// delivery and held back ReorderGap extra, letting later frames
	// overtake it.
	Reorder float64 `json:"reorder,omitempty"`
	// ReorderGap is the extra hold applied to reordered frames; zero
	// defaults to the frame's jitter scale (or 1ms if jitter is zero).
	ReorderGap time.Duration `json:"reorder_gap,omitempty"`
	// RateMbps caps the link's serialization rate in megabits per
	// second; zero means unlimited.
	RateMbps float64 `json:"rate_mbps,omitempty"`
	// QueueBytes bounds the rate-cap backlog: a frame that would push
	// the queued byte count past this limit is dropped (tail drop).
	// Zero with a rate cap means an unbounded queue.
	QueueBytes int `json:"queue_bytes,omitempty"`
	// Windows are scheduled partition intervals in link-local time.
	Windows []Window `json:"windows,omitempty"`
}

// IsZero reports whether the profile is the clean zero-delay link (every
// impairment dimension off).
func (p *Profile) IsZero() bool {
	return p.Delay == 0 && p.Jitter == 0 && p.Loss == 0 && p.GE == nil &&
		p.Reorder == 0 && p.RateMbps == 0 && len(p.Windows) == 0
}

// Partitioned reports whether link-local time now falls inside a
// scheduled partition window.
func (p *Profile) Partitioned(now time.Duration) bool {
	for _, w := range p.Windows {
		if now >= w.From && now < w.To {
			return true
		}
	}
	return false
}

// jitterDraw samples the extra per-frame delay from the configured
// distribution using the link's private RNG.
func (p *Profile) jitterDraw(rng *rand.Rand) time.Duration {
	if p.Jitter <= 0 {
		return 0
	}
	switch p.Dist {
	case JitterNormal:
		d := time.Duration(rng.NormFloat64() * float64(p.Jitter))
		if d < 0 {
			d = -d
		}
		return d
	default: // JitterUniform
		return time.Duration(rng.Int63n(int64(p.Jitter)))
	}
}

// reorderGap returns the effective hold-back applied to reordered frames.
func (p *Profile) reorderGap() time.Duration {
	if p.ReorderGap > 0 {
		return p.ReorderGap
	}
	if p.Jitter > 0 {
		return p.Jitter
	}
	return time.Millisecond
}

// LinkRNG derives the deterministic per-link random source for a link
// identified by name under a root seed, so every link draws from an
// uncorrelated but reproducible stream (same derivation as simnet.RNG).
func LinkRNG(seed int64, name string) *rand.Rand {
	return simnet.RNG(seed, "netem/"+name)
}
