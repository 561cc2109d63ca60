package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dataplane"
	"repro/internal/metrics"
	"repro/internal/southbound"
)

// Southbound rule-programming observability. Batches and barriers count
// wire messages on ConnDevices; sync_roundtrips counts every blocking
// request round trip (the quantity batching exists to reduce). The
// histograms time whole logical operations — path setup, teardown,
// reroute — and individual batch flushes.
var (
	connBatches        = metrics.NewCounter("core.southbound.batches")
	connFlowMods       = metrics.NewCounter("core.southbound.flowmods")
	connBarriers       = metrics.NewCounter("core.southbound.barriers")
	connBarrierRetries = metrics.NewCounter("core.southbound.barrier_retries")
	connSyncRoundTrips = metrics.NewCounter("core.southbound.sync_roundtrips")
	// connDeadlineWakeups counts the times a ConnDevice deadline loop
	// parked on its timer: against barriers, wake-ups per fence.
	connDeadlineWakeups = metrics.NewCounter("core.southbound.deadline_wakeups")
	// Adaptive-timeout observability: every accepted RTT sample, the
	// attempt timeouts the estimator armed, and barrier replies that
	// arrived after their fence expired (the spurious-retry fingerprint
	// adaptive timeouts exist to suppress).
	connRTTSamples          = metrics.NewCounter("core.southbound.rtt_samples")
	connRTTObserved         = metrics.NewDurationHist("core.southbound.rtt_observed")
	connRTTTimeout          = metrics.NewDurationHist("core.southbound.rtt_timeout")
	connStaleBarrierReplies = metrics.NewCounter("core.southbound.rtt_stale_replies")
	flushRollbacks          = metrics.NewCounter("core.southbound.flush_rollbacks")
	flushLatency            = metrics.NewDurationHist("core.southbound.flush_latency")
	setupLatency            = metrics.NewDurationHist("core.pathsetup.setup_latency")
	teardownLatency         = metrics.NewDurationHist("core.pathsetup.teardown_latency")
	rerouteLatency          = metrics.NewDurationHist("core.pathsetup.reroute_latency")
	// pathsReused counts bearer requests answered by the path the bearer
	// already had (a same-group handover or a repeat attach).
	pathsReused = metrics.NewCounter("core.pathsetup.reused")
)

// BatchInstaller is the optional Device extension for batched rule
// programming: all rules land on the device fenced by at most one
// barrier round trip. On error the device may hold any prefix of the
// batch — callers are expected to roll the affected owner/version back
// with RemoveRulesVersion. Devices without the extension fall back to
// per-rule InstallRule (see installRules).
type BatchInstaller interface {
	InstallRules(rules []dataplane.Rule) error
}

// remoteDevice marks Device implementations whose rule programming
// leaves the process (a wire protocol round trip, or a delegation into a
// child controller). Only batches touching at least one remote device
// are fanned out concurrently: for in-process switches the goroutine
// hand-off costs more than the installs it would overlap, and keeping
// them serial preserves deterministic install order for the
// fault-injection harness's seed replay.
type remoteDevice interface {
	remoteSouthbound()
}

// RemoteSouthbound marks a Device implementation outside this package as
// remote for southbound fan-out purposes (see remoteDevice): embed it in
// any wrapper whose rule programming pays a wire round trip, so batches
// touching it flush concurrently across devices.
type RemoteSouthbound struct{}

func (RemoteSouthbound) remoteSouthbound() {}

// installRules programs a batch of rules on one device, via the
// BatchInstaller fast path when available.
func installRules(d Device, rules []dataplane.Rule) error {
	if bi, ok := d.(BatchInstaller); ok {
		return bi.InstallRules(rules)
	}
	for _, r := range rules {
		if err := d.InstallRule(r); err != nil {
			return err
		}
	}
	return nil
}

// ruleBatch accumulates the rules of one logical operation grouped per
// device, in first-touch device order so serial flushes install along the
// path direction. A path touches a handful of devices, nearly always once
// each, so the batch is a slice searched linearly and a device's first
// rule lives in its entry: the common batch is one allocation.
type ruleBatch struct {
	devs []devRules
	size int
}

// devRules is one device's share of a ruleBatch.
type devRules struct {
	dev  dataplane.DeviceID
	one  [1]dataplane.Rule // the device's only rule...
	many []dataplane.Rule  // ...or all of them, once a second arrives
}

func newRuleBatch() *ruleBatch { return &ruleBatch{} }

func (b *ruleBatch) add(dev dataplane.DeviceID, r dataplane.Rule) {
	b.size++
	for i := range b.devs {
		if e := &b.devs[i]; e.dev == dev {
			if e.many == nil {
				e.many = append(e.many, e.one[0])
			}
			e.many = append(e.many, r)
			return
		}
	}
	b.devs = append(b.devs, devRules{dev: dev, one: [1]dataplane.Rule{r}})
}

// rules returns the device's rules in the order they were added. The
// slice aliases the batch: valid until the next add.
func (e *devRules) rules() []dataplane.Rule {
	if e.many != nil {
		return e.many
	}
	return e.one[:]
}

// rulesOf returns dev's rules, nil when the batch never touched dev.
func (b *ruleBatch) rulesOf(dev dataplane.DeviceID) []dataplane.Rule {
	for i := range b.devs {
		if e := &b.devs[i]; e.dev == dev {
			return e.rules()
		}
	}
	return nil
}

// asyncDevice is a Device with the optional extension for pipelined
// modifications: the device enqueues the batch (or the one delete
// command), fences it with a barrier-ID completion, and invokes the
// callback when the fence resolves. The callback runs on the device's
// receive or deadline goroutine and must not block.
type asyncDevice interface {
	Device
	installRulesAsync(rules []dataplane.Rule, cb func(error))
	removeRulesAsync(cmd southbound.FlowModCommand, owner string, version int, cb func(error))
}

// removeOwned issues one delete command for owner on every listed device:
// pipelined on devices with asynchronous completion, through the matching
// Device method otherwise. Every device is visited; first error wins.
func (c *Controller) removeOwned(devs []Device, cmd southbound.FlowModCommand, owner string, version int) error {
	return c.fanPerDevice(devs,
		func(d asyncDevice, cb func(error)) { d.removeRulesAsync(cmd, owner, version, cb) },
		func(d Device) error {
			switch cmd {
			case southbound.FlowDeleteOwnerBefore:
				return d.RemoveRulesBefore(owner, version)
			case southbound.FlowDeleteOwnerVersion:
				return d.RemoveRulesVersion(owner, version)
			default:
				return d.RemoveRules(owner)
			}
		})
}

// fanPerDevice overlaps one action per device. Devices capable of
// asynchronous completion (ConnDevice) have their modifications and
// fences issued back to back and joined at the end, so N remote devices
// cost roughly one wire round trip of wall time — with no goroutine
// hand-off per device. Devices without the capability run through
// runPerDevice (concurrent for remote devices, serial otherwise); a set
// with no asyncDevice at all (every SwitchDevice set, the root's
// logicalDevices) goes there whole and pays for no join. First error wins.
func (c *Controller) fanPerDevice(devs []Device, asyncF func(asyncDevice, func(error)), syncF func(Device) error) error {
	isAsync := func(d Device) bool { _, ok := d.(asyncDevice); return ok }
	if c.SerialSouthbound || !slices.ContainsFunc(devs, isAsync) {
		return c.runPerDevice(devs, syncF)
	}
	// One join and one bound method serve every device's completion.
	j := new(fanJoin)
	done := j.done
	var syncDevs []Device
	for _, d := range devs {
		if ad, ok := d.(asyncDevice); ok {
			j.wg.Add(1)
			asyncF(ad, done)
		} else {
			syncDevs = append(syncDevs, d)
		}
	}
	if len(syncDevs) > 0 {
		j.wg.Add(1)
		done(c.runPerDevice(syncDevs, syncF))
	}
	return j.wait()
}

// fanJoin joins the per-device completions of one fan-out: first error
// wins.
type fanJoin struct {
	wg sync.WaitGroup
	mu sync.Mutex
	// err is the first error reported, guarded by mu.
	err error
}

// done records one completion; it is safe as an asynchronous fence
// callback (it never blocks).
func (j *fanJoin) done(err error) {
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	}
	j.wg.Done()
}

// wait blocks until every completion added to wg was recorded.
func (j *fanJoin) wait() error {
	j.wg.Wait()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// runPerDevice applies f to every device, concurrently when the set
// contains a remote device (and the controller is not forced serial),
// first error wins. Serial runs visit devices in slice order and stop at
// the first error; concurrent runs always visit every device.
func (c *Controller) runPerDevice(devs []Device, f func(Device) error) error {
	concurrent := !c.SerialSouthbound && len(devs) > 1
	if concurrent {
		concurrent = false
		for _, d := range devs {
			if _, ok := d.(remoteDevice); ok {
				concurrent = true
				break
			}
		}
	}
	if !concurrent {
		for _, d := range devs {
			if err := f(d); err != nil {
				return err
			}
		}
		return nil
	}
	j := new(fanJoin)
	j.wg.Add(len(devs))
	for _, d := range devs {
		//softmow:allow gospawn done marks the join's WaitGroup, which wait() below blocks on
		go func(d Device) { j.done(f(d)) }(d)
	}
	return j.wait()
}

// flushBatch programs an accumulated batch: owner and version are
// stamped onto every rule, all devices are resolved up front (so an
// unknown device fails the operation before anything is installed), and
// the per-device batches fan out concurrently across remote devices —
// each fenced by a single barrier (ConnDevice.InstallRules). On any
// failure every device of the batch is scrubbed of exactly this version
// (RemoveRulesVersion), which cannot disturb older versions of the same
// owner still carrying traffic mid-update (§6).
func (c *Controller) flushBatch(b *ruleBatch, owner string, version int) error {
	if b == nil || b.size == 0 {
		return nil
	}
	start := time.Now() //softmow:allow determinism wall clock feeds the flush-latency histogram only, never control decisions
	devs := make([]Device, 0, len(b.devs))
	for i := range b.devs {
		e := &b.devs[i]
		d := c.Device(e.dev)
		if d == nil {
			return fmt.Errorf("core: %s: path device %s not attached", c.ID, e.dev)
		}
		rules := e.rules()
		for j := range rules {
			rules[j].Owner = owner
			rules[j].Version = version
		}
		devs = append(devs, d)
	}
	c.mu.Lock()
	c.stats.RulesInstalled += b.size
	c.mu.Unlock()
	err := c.fanPerDevice(devs,
		func(d asyncDevice, cb func(error)) { d.installRulesAsync(b.rulesOf(d.ID()), cb) },
		func(d Device) error { return installRules(d, b.rulesOf(d.ID())) })
	if err != nil {
		flushRollbacks.Inc()
		// The install error is what the caller acts on; the scrub is
		// best-effort and idempotent (version filters match nothing once
		// removed), so its own error carries no extra signal. It stays
		// version-exact: only the batches this flush fenced are removed.
		//softmow:allow errdiscard rollback is best-effort, the install error propagates
		_ = c.removeOwned(devs, southbound.FlowDeleteOwnerVersion, owner, version)
		return err
	}
	flushLatency.Observe(time.Since(start))
	return nil
}
