package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/dataplane"
	"repro/internal/metrics"
)

// Control-channel liveness observability: probe attempts, missed echoes,
// suspect declarations, and the targeted rediscoveries that healed them.
var (
	livenessProbes        = metrics.NewCounter("core.discovery.probes")
	livenessMisses        = metrics.NewCounter("core.discovery.probe_misses")
	livenessSuspects      = metrics.NewCounter("core.discovery.suspects")
	livenessRediscoveries = metrics.NewCounter("core.discovery.rediscoveries")
)

// Pinger is the optional Device extension for control-channel liveness:
// one bounded echo round trip. ConnDevice implements it; in-process
// simulated devices don't need it (their "channel" is a function call).
type Pinger interface {
	Ping(timeout time.Duration) error
}

// LivenessConfig parameterizes a prober (sOFTDP-style fast liveness:
// echo rounds, suspicion after consecutive misses, targeted rediscovery on
// recovery instead of waiting for a full refresh).
type LivenessConfig struct {
	// Timeout bounds each echo round trip (default 25 ms).
	Timeout time.Duration
	// SuspectAfter is how many consecutive misses declare the device's
	// control channel suspect.
	SuspectAfter int
}

func (cfg *LivenessConfig) normalize() {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 25 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
}

// LivenessStats snapshots one prober's lifetime counts.
type LivenessStats struct {
	// Probes counts echo attempts.
	Probes int64 `json:"probes"`
	// Misses counts echoes that timed out or failed.
	Misses int64 `json:"misses"`
	// Suspects counts suspect declarations (a device can contribute
	// several across repeated partitions).
	Suspects int64 `json:"suspects"`
	// Rediscoveries counts targeted rediscoveries triggered by a suspect
	// device answering again.
	Rediscoveries int64 `json:"rediscoveries"`
}

// LivenessProber pings every Pinger-capable device of one controller in
// each ProbeOnce round. After SuspectAfter consecutive misses the device's
// NIB links are marked down (routing immediately stops using them — the
// paper's reachability contract under a partitioned control channel);
// when a suspect device answers again, the prober triggers a targeted
// RediscoverDevice instead of a full RunDiscovery, so one healed WAN link
// does not cost a topology-wide refresh.
type LivenessProber struct {
	c   *Controller
	cfg LivenessConfig

	mu sync.Mutex
	// misses counts consecutive failed probes per device, guarded by mu.
	misses map[dataplane.DeviceID]int
	// suspect records devices currently declared suspect, guarded by mu.
	suspect map[dataplane.DeviceID]bool
	// stats accumulates lifetime counts, guarded by mu.
	stats LivenessStats
}

// NewLivenessProber builds a prober for c's devices; the caller drives
// rounds with ProbeOnce.
func NewLivenessProber(c *Controller, cfg LivenessConfig) *LivenessProber {
	cfg.normalize()
	return &LivenessProber{
		c:       c,
		cfg:     cfg,
		misses:  make(map[dataplane.DeviceID]int),
		suspect: make(map[dataplane.DeviceID]bool),
	}
}

// Stats snapshots the prober's lifetime counts.
func (p *LivenessProber) Stats() LivenessStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Suspects lists the devices currently declared suspect, in no
// particular order (callers needing determinism sort).
func (p *LivenessProber) Suspects() []dataplane.DeviceID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]dataplane.DeviceID, 0, len(p.suspect))
	for id := range p.suspect {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ProbeOnce runs one probe round over every Pinger-capable device, in
// the controller's deterministic device order. Misses accumulate toward
// suspicion; a suspect device that answers recovers via targeted
// rediscovery.
func (p *LivenessProber) ProbeOnce() {
	for _, d := range p.c.Devices() {
		pinger, ok := d.(Pinger)
		if !ok {
			continue
		}
		livenessProbes.Inc()
		err := pinger.Ping(p.cfg.Timeout)
		p.mu.Lock()
		p.stats.Probes++
		id := d.ID()
		if err != nil {
			p.misses[id]++
			p.stats.Misses++
			newlySuspect := p.misses[id] == p.cfg.SuspectAfter && !p.suspect[id]
			if newlySuspect {
				p.suspect[id] = true
				p.stats.Suspects++
			}
			p.mu.Unlock()
			livenessMisses.Inc()
			if newlySuspect {
				livenessSuspects.Inc()
				p.markLinks(id, false)
			}
			continue
		}
		recovered := p.suspect[id]
		delete(p.suspect, id)
		p.misses[id] = 0
		if recovered {
			p.stats.Rediscoveries++
		}
		p.mu.Unlock()
		if recovered {
			livenessRediscoveries.Inc()
			// The channel is back: rediscover this device's links only.
			// Frames that complete the round trip re-Put their link with
			// Up=true, restoring reachability without touching the rest
			// of the topology.
			p.c.RediscoverDevice(id)
		}
	}
}

// markLinks flips every NIB link touching id to up=false (suspicion) —
// the links survive as records so rediscovery or a port-status can
// restore them.
func (p *LivenessProber) markLinks(id dataplane.DeviceID, up bool) {
	for _, l := range p.c.NIB.LinksOf(id) {
		p.c.NIB.SetLinkUp(l.Key(), up)
	}
}
