package core

import (
	"fmt"
	"sync"

	"repro/internal/dataplane"
	"repro/internal/discovery"
	"repro/internal/southbound"
)

// Device is a controller's handle on one of its data-plane devices: a
// physical switch at the leaf level, a child-exposed gigantic switch above
// (§3.3: "NOS communicates with switches (logical or physical) using a
// southbound API"). The prototype matches the paper's: "Leaf controllers
// use the OpenFlow protocol to communicate with switches while other
// controllers interact with logical data plane elements through a custom
// API similar to OpenFlow" (§7.1).
type Device interface {
	// ID returns the device's data-plane identifier.
	ID() dataplane.DeviceID
	// Features returns the device description (ports, kind, and the
	// virtual fabric for G-switches), or why the device could not give it.
	Features() (southbound.FeatureReply, error)
	// InstallRules installs rules in order, fenced as one operation. On a
	// G-switch this triggers the child controller's recursive translation
	// (§4.3). On error the device may hold any prefix of the rules: the
	// caller rolls the affected owner and version back (flushBatch).
	InstallRules(rules []dataplane.Rule) error
	// RemoveRules executes one delete command — the FlowMod of the wire —
	// recursively for G-switches: by owner tag, an owner's versions before
	// version (the cleanup step of a consistent path update, §6), or exactly
	// one version of an owner (the rollback of a partial translation, which
	// must not touch older versions still carrying traffic).
	RemoveRules(cmd southbound.FlowModCommand, owner string, version int) error
	// EmitDiscovery sends a link-discovery frame out of a port (§4.1.2).
	EmitDiscovery(port dataplane.PortID, f *discovery.Frame) error
}

// SwitchDevice adapts a physical dataplane switch for direct in-process
// control. It installs itself as the switch's controller hook so punted
// packets and port events reach the owning controller.
type SwitchDevice struct {
	net *dataplane.Network
	sw  *dataplane.Switch

	mu sync.Mutex
	// ctrl is the attached controller, guarded by mu.
	ctrl *Controller
}

// NewSwitchDevice wraps a switch and registers the event hook.
func NewSwitchDevice(net *dataplane.Network, sw *dataplane.Switch) *SwitchDevice {
	d := &SwitchDevice{net: net, sw: sw}
	sw.SetHook(d)
	return d
}

func (d *SwitchDevice) setController(c *Controller) {
	d.mu.Lock()
	d.ctrl = c
	d.mu.Unlock()
}

func (d *SwitchDevice) controller() *Controller {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctrl
}

// ID implements Device.
func (d *SwitchDevice) ID() dataplane.DeviceID { return d.sw.ID }

// Features implements Device.
func (d *SwitchDevice) Features() (southbound.FeatureReply, error) {
	return southbound.BuildFeatures(d.sw), nil
}

// InstallRules implements Device, taking any bandwidth reservation a
// rule's Demand requires (admission control, §3.2).
func (d *SwitchDevice) InstallRules(rules []dataplane.Rule) error {
	for i := range rules {
		if err := d.net.InstallRule(d.sw.ID, rules[i]); err != nil {
			return err
		}
	}
	return nil
}

// RemoveRules implements Device, releasing reservations.
func (d *SwitchDevice) RemoveRules(cmd southbound.FlowModCommand, owner string, version int) error {
	return southbound.ApplyFlowMod(d.net, d.sw.ID, &southbound.FlowMod{Command: cmd, Owner: owner, Version: version})
}

// EmitDiscovery implements Device: the frame crosses the physical link (if
// any) and arrives at the far switch's controller, exactly like an LLDP
// packet-out (§4.1.2). The link's properties fill the frame's meta field.
func (d *SwitchDevice) EmitDiscovery(port dataplane.PortID, f *discovery.Frame) error {
	p := d.sw.PortByID(port)
	if p == nil {
		return fmt.Errorf("core: %s has no port %d", d.sw.ID, port)
	}
	if p.External || p.Radio != "" || p.Link == nil || !p.Link.Up() {
		return nil // frames die on external, radio, and down ports
	}
	far, ok := p.Link.Other(d.sw.ID)
	if !ok {
		return nil
	}
	farSw := d.net.Switch(far.Dev)
	if farSw == nil {
		return nil
	}
	f.Meta = discovery.LinkMeta{Latency: p.Link.Latency, Bandwidth: p.Link.Available()}
	hook := farSw.Hook()
	if hook == nil {
		return nil
	}
	if fd, ok := hook.(*SwitchDevice); ok {
		if c := fd.controller(); c != nil {
			c.HandleDiscoveryArrival(far.Dev, far.Port, f)
		}
	}
	return nil
}

// PacketIn implements dataplane.ControllerHook: punted data packets become
// Packet-In events at the owning controller.
func (d *SwitchDevice) PacketIn(sw dataplane.DeviceID, inPort dataplane.PortID, p *dataplane.Packet) {
	if c := d.controller(); c != nil {
		c.HandlePacketIn(sw, inPort, p)
	}
}

// PortStatus implements dataplane.ControllerHook.
func (d *SwitchDevice) PortStatus(sw dataplane.DeviceID, port dataplane.PortID, up bool) {
	if c := d.controller(); c != nil {
		c.HandlePortStatus(sw, port, up)
	}
}

// logicalDevice is a parent controller's handle on a child-exposed
// G-switch: the "custom API similar to OpenFlow" of §7.1. Every call
// delegates to the child controller's RecA. It is an asyncDevice, so a
// parent's flush overlaps its children's translations without a goroutine
// per child.
type logicalDevice struct {
	child *Controller
}

// ID implements Device.
func (d *logicalDevice) ID() dataplane.DeviceID { return d.child.GSwitchID() }

// Features implements Device.
func (d *logicalDevice) Features() (southbound.FeatureReply, error) {
	return d.child.RecAFeatures(), nil
}

// InstallRules implements Device: the child translates the virtual rules
// onto its own (physical or logical) topology (§4.3).
func (d *logicalDevice) InstallRules(rules []dataplane.Rule) error {
	return d.child.TranslateRules(rules, nil)
}

// RemoveRules implements Device: the child's recursive removal.
func (d *logicalDevice) RemoveRules(cmd southbound.FlowModCommand, owner string, version int) error {
	return d.child.RemoveTranslated(cmd, owner, version, nil)
}

// installRulesAsync implements asyncDevice: every rule of the call — one
// owner and version — translates into one child batch issued through the
// child's own fan-out, and cb runs when the child's last fence resolves.
// The child does not roll back a failure: the parent's flush rollback
// (a FlowDeleteOwnerVersion through RemoveTranslated) scrubs exactly this
// owner and version from the child devices, so no callback ever blocks
// and no goroutine is spawned.
func (d *logicalDevice) installRulesAsync(rules []dataplane.Rule, cb func(error)) {
	//softmow:allow errdiscard with a callback the outcome reaches cb and the return is always nil
	_ = d.child.TranslateRules(rules, cb)
}

// removeRulesAsync implements asyncDevice: RemoveRules with cb in place of
// the wait.
func (d *logicalDevice) removeRulesAsync(cmd southbound.FlowModCommand, owner string, version int, cb func(error)) {
	//softmow:allow errdiscard with a callback the outcome reaches cb and the return is always nil
	_ = d.child.RemoveTranslated(cmd, owner, version, cb)
}

// EmitDiscovery implements Device: the child maps the G-switch port to its
// underlying attachment, pushes its own stack entry and recurses (§4.1.2).
func (d *logicalDevice) EmitDiscovery(port dataplane.PortID, f *discovery.Frame) error {
	return d.child.RecAEmitDiscovery(port, f)
}
