package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
	// connDeadlineWakeups counts ConnDevice deadline-timer callbacks:
	// against barriers, wake-ups per fence.
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
// modifications: the device issues the batch (or the one delete command)
// and invokes the callback once every fence covering it has resolved.
// ConnDevice fences on the wire; a parent's logicalDevice issues the
// child's own fan-out. The callback runs on whichever goroutine resolved
// the last fence — a ConnDevice receive or deadline goroutine, or the
// caller's own when nothing was left in flight — and must not block.
type asyncDevice interface {
	Device
	installRulesAsync(rules []dataplane.Rule, cb func(error))
	removeRulesAsync(cmd southbound.FlowModCommand, owner string, version int, cb func(error))
}

// removeOwned issues one delete command for owner on every listed device
// and waits for all of them (removeOwnedThen with a nil then).
func (c *Controller) removeOwned(devs []Device, cmd southbound.FlowModCommand, owner string, version int) error {
	return c.removeOwnedThen(devs, cmd, owner, version, nil)
}

// removeOwnedThen issues one delete command for owner on every listed
// device, pipelined on devices with asynchronous completion. Every device
// is visited; first error wins. It completes the way fanPerDevice does.
func (c *Controller) removeOwnedThen(devs []Device, cmd southbound.FlowModCommand, owner string, version int, then func(error)) error {
	return c.fanPerDevice(devs,
		func(d asyncDevice, cb func(error)) { d.removeRulesAsync(cmd, owner, version, cb) },
		func(d Device) error { return d.RemoveRules(cmd, owner, version) },
		then)
}

// fanPerDevice applies one action per device and joins the outcomes, first
// error wins. Devices capable of asynchronous completion (ConnDevice, a
// child's logicalDevice) have their modifications and fences issued back
// to back, so N of them cost roughly one round trip of wall time and no
// goroutine; the others run serially, in slice order, on the calling
// goroutine, stopping at the first error among them. A set with no async
// device pays for no join.
//
// With then nil the call blocks and returns the joined error. Otherwise it
// returns nil at once and then receives the joined error exactly once,
// from whichever goroutine completed the last device.
func (c *Controller) fanPerDevice(devs []Device, asyncF func(asyncDevice, func(error)), syncF func(Device) error, then func(error)) error {
	isAsync := func(d Device) bool { _, ok := d.(asyncDevice); return ok }
	if !slices.ContainsFunc(devs, isAsync) {
		return settle(runPerDevice(devs, syncF), then)
	}
	// One join and one bound method serve every device's completion.
	j := newFanJoin(then)
	done := j.done
	var syncDevs []Device
	for _, d := range devs {
		if ad, ok := d.(asyncDevice); ok {
			j.left.Add(1)
			asyncF(ad, done)
		} else {
			syncDevs = append(syncDevs, d)
		}
	}
	return j.finish(runPerDevice(syncDevs, syncF))
}

// fanJoin joins the completions of one fan-out: first error wins, and the
// last completion hands it on — to then, or to a blocking issuer parked on
// wg when then is nil. The issuer holds one count of its own, so no
// completion can finish the join before everything has been issued: it
// adds one to left per completion it issues, then calls finish.
type fanJoin struct {
	// left counts the completions still due, the issuer's own included.
	left atomic.Int32
	mu   sync.Mutex
	// err is the first error reported, guarded by mu.
	err error
	// then receives err once left reaches zero; nil for a blocking issuer,
	// which waits on wg instead.
	then func(error)
	wg   sync.WaitGroup
}

// newFanJoin returns a join holding only the issuer's count.
func newFanJoin(then func(error)) *fanJoin {
	j := &fanJoin{then: then}
	if then == nil {
		j.wg.Add(1)
	}
	j.left.Store(1)
	return j
}

// finish releases the issuer's count with err. With a nil then it waits
// for every completion and returns the first error; otherwise it returns
// nil at once.
func (j *fanJoin) finish(err error) error {
	j.done(err)
	if j.then != nil {
		return nil
	}
	j.wg.Wait()
	return j.firstErr()
}

// done records one completion; it never blocks, so it is safe as an
// asynchronous fence callback.
func (j *fanJoin) done(err error) {
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	}
	if j.left.Add(-1) != 0 {
		return
	}
	if j.then == nil {
		j.wg.Done()
		return
	}
	j.then(j.firstErr())
}

// firstErr returns the first error reported, nil if none was.
func (j *fanJoin) firstErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// runPerDevice applies f to every device in slice order and stops at the
// first error.
func runPerDevice(devs []Device, f func(Device) error) error {
	for _, d := range devs {
		if err := f(d); err != nil {
			return err
		}
	}
	return nil
}

// flushBatch programs an accumulated batch and waits for it. On any
// failure after the batch was issued, every device of the batch is
// scrubbed of exactly this version (FlowDeleteOwnerVersion), which cannot
// disturb older versions of the same owner still carrying traffic
// mid-update (§6).
func (c *Controller) flushBatch(b *ruleBatch, owner string, version int) error {
	if b == nil || b.size == 0 {
		return nil
	}
	start := time.Now() //softmow:allow determinism wall clock feeds the flush-latency histogram only, never control decisions
	devs, err := c.issueBatch(b, owner, version, nil)
	if err != nil {
		if devs != nil {
			c.scrubVersion(devs, owner, version)
		}
		return err
	}
	flushLatency.Observe(time.Since(start))
	return nil
}

// issueBatch is the one body of both faces of a batch flush. It stamps
// owner and version onto every rule, resolves every device up front (so an
// unknown device fails the operation before anything is installed, and no
// device is returned), and fans the per-device batches out, each fenced by
// a single barrier. With then nil it waits and returns the first error;
// otherwise then receives the outcome and only a resolution error is
// returned. It never rolls back: a blocking caller scrubs the version on
// failure (flushBatch), and an asynchronous one leaves that to whoever
// joins it — the inter-region handover for its two overlapped installs,
// the parent's flush for a child's translation (logicalDevice).
func (c *Controller) issueBatch(b *ruleBatch, owner string, version int, then func(error)) ([]Device, error) {
	devs := make([]Device, 0, len(b.devs))
	for i := range b.devs {
		e := &b.devs[i]
		d := c.Device(e.dev)
		if d == nil {
			return nil, fmt.Errorf("core: %s: path device %s not attached", c.ID, e.dev)
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
	return devs, c.fanPerDevice(devs,
		func(d asyncDevice, cb func(error)) { d.installRulesAsync(b.rulesOf(d.ID()), cb) },
		func(d Device) error { return d.InstallRules(b.rulesOf(d.ID())) },
		then)
}

// scrubVersion rolls a failed flush back: exactly owner's version is
// removed from devs. The scrub is best-effort and idempotent (version
// filters match nothing once removed), so its own error carries no signal
// beyond the install error the caller already acts on.
func (c *Controller) scrubVersion(devs []Device, owner string, version int) {
	flushRollbacks.Inc()
	//softmow:allow errdiscard rollback is best-effort, the install error propagates
	_ = c.removeOwned(devs, southbound.FlowDeleteOwnerVersion, owner, version)
}
