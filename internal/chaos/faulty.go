package chaos

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/discovery"
	"repro/internal/southbound"
)

// FaultPlan is a single-shot install-fault injector shared by every
// FaultyDevice in a harness: Arm schedules one failure after skipping a
// configurable number of installs, so the fault lands at a randomized
// position inside a multi-rule path setup (first hop, mid-path, or during a
// classification fan-out).
type FaultPlan struct {
	mu sync.Mutex
	// armed reports whether a fault is scheduled, guarded by mu.
	armed bool
	// skip counts installs to let through before failing one, guarded by mu.
	skip int
	// injected records whether the armed fault fired, guarded by mu.
	injected bool
}

// Arm schedules the next install fault: the plan lets `skip` rule installs
// through, fails the one after, then disarms itself.
func (p *FaultPlan) Arm(skip int) {
	p.mu.Lock()
	p.armed = true
	p.skip = skip
	p.injected = false
	p.mu.Unlock()
}

// Disarm clears the plan and reports whether the armed fault actually fired
// (a short path may need fewer installs than the skip count).
func (p *FaultPlan) Disarm() bool {
	p.mu.Lock()
	fired := p.injected
	p.armed = false
	p.mu.Unlock()
	return fired
}

// fail decides whether this install call is the one to break.
func (p *FaultPlan) fail(dev dataplane.DeviceID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.armed || p.injected {
		return nil
	}
	if p.skip > 0 {
		p.skip--
		return nil
	}
	p.injected = true
	return fmt.Errorf("chaos: injected install fault on %s", dev)
}

// FaultyDevice wraps a controller's device handle and fails rule installs
// according to the shared FaultPlan. Everything else forwards to the inner
// device, so discovery, rule removal, and feature reads are unaffected.
//
// The wrapper intentionally does not receive controller events itself: the
// inner SwitchDevice stays registered as the switch hook (attach the inner
// device first, then the wrapper, so the controller back-pointer is wired
// on the inner adapter while rule installs route through the wrapper).
type FaultyDevice struct {
	Inner core.Device
	Plan  *FaultPlan
}

// ID implements core.Device.
func (d *FaultyDevice) ID() dataplane.DeviceID { return d.Inner.ID() }

// Features implements core.Device.
func (d *FaultyDevice) Features() (southbound.FeatureReply, error) { return d.Inner.Features() }

// InstallRules implements core.Device, consulting the fault plan before
// every rule, so an armed fault can land mid-batch, leaving the
// already-applied prefix behind exactly like a device that aborted a
// FlowModBatch partway — the controller's version-exact rollback must then
// scrub it.
func (d *FaultyDevice) InstallRules(rules []dataplane.Rule) error {
	for i := range rules {
		if err := d.Plan.fail(d.Inner.ID()); err != nil {
			return err
		}
		if err := d.Inner.InstallRules(rules[i : i+1]); err != nil {
			return err
		}
	}
	return nil
}

// RemoveRules implements core.Device.
func (d *FaultyDevice) RemoveRules(cmd southbound.FlowModCommand, owner string, version int) error {
	return d.Inner.RemoveRules(cmd, owner, version)
}

// EmitDiscovery implements core.Device.
func (d *FaultyDevice) EmitDiscovery(port dataplane.PortID, f *discovery.Frame) error {
	return d.Inner.EmitDiscovery(port, f)
}
