package core

import (
	"fmt"
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
// device, preserving first-touch device order so serial flushes install
// along the path direction.
type ruleBatch struct {
	order []dataplane.DeviceID
	rules map[dataplane.DeviceID][]dataplane.Rule
	size  int
}

func newRuleBatch() *ruleBatch {
	return &ruleBatch{rules: make(map[dataplane.DeviceID][]dataplane.Rule)}
}

func (b *ruleBatch) add(dev dataplane.DeviceID, r dataplane.Rule) {
	if _, seen := b.rules[dev]; !seen {
		b.order = append(b.order, dev)
	}
	b.rules[dev] = append(b.rules[dev], r)
	b.size++
}

// asyncInstaller is the optional Device extension for pipelined batch
// installs: the device enqueues the batch, fences it with a barrier-ID
// completion, and invokes the callback when the fence resolves. The
// callback runs on the device's receive or deadline goroutine and must
// not block.
type asyncInstaller interface {
	tryInstallRulesAsync(rules []dataplane.Rule, cb func(error)) bool
}

// asyncRemover is the delete-side counterpart of asyncInstaller, used for
// teardown and rollback fan-out.
type asyncRemover interface {
	tryRemoveRulesAsync(cmd southbound.FlowModCommand, owner string, version int, cb func(error)) bool
}

// removeOwned issues one delete command for owner on every listed device:
// pipelined on devices with asynchronous completion, through the matching
// Device method otherwise. Every device is visited; first error wins.
func (c *Controller) removeOwned(devs []Device, cmd southbound.FlowModCommand, owner string, version int) error {
	return c.fanPerDevice(devs,
		func(d Device, cb func(error)) bool {
			ar, ok := d.(asyncRemover)
			return ok && ar.tryRemoveRulesAsync(cmd, owner, version, cb)
		},
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
// runPerDevice (concurrent for remote devices, serial otherwise). First
// error wins, and every device is always visited.
func (c *Controller) fanPerDevice(devs []Device, tryAsync func(Device, func(error)) bool, syncF func(Device) error) error {
	if c.SerialSouthbound || len(devs) == 0 {
		return c.runPerDevice(devs, syncF)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	record := func(err error) {
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	}
	var syncDevs []Device
	for _, d := range devs {
		wg.Add(1)
		if tryAsync(d, func(err error) { record(err); wg.Done() }) {
			continue
		}
		wg.Done()
		syncDevs = append(syncDevs, d)
	}
	if len(syncDevs) > 0 {
		record(c.runPerDevice(syncDevs, syncF))
	}
	wg.Wait()
	return firstErr
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
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, d := range devs {
		wg.Add(1)
		go func(d Device) {
			defer wg.Done()
			if err := f(d); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(d)
	}
	wg.Wait()
	return firstErr
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
	devs := make([]Device, 0, len(b.order))
	for _, id := range b.order {
		d := c.Device(id)
		if d == nil {
			return fmt.Errorf("core: %s: path device %s not attached", c.ID, id)
		}
		rules := b.rules[id]
		for i := range rules {
			rules[i].Owner = owner
			rules[i].Version = version
		}
		devs = append(devs, d)
	}
	c.mu.Lock()
	c.stats.RulesInstalled += b.size
	c.mu.Unlock()
	err := c.fanPerDevice(devs,
		func(d Device, cb func(error)) bool {
			ai, ok := d.(asyncInstaller)
			return ok && ai.tryInstallRulesAsync(b.rules[d.ID()], cb)
		},
		func(d Device) error { return installRules(d, b.rules[d.ID()]) })
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
