package core

import (
	"fmt"

	"repro/internal/dataplane"
	"repro/internal/discovery"
	"repro/internal/nib"
)

// RunDiscovery performs one discovery round (§4.1.2): the controller sends
// a link-discovery frame from every port of every registered device. Frames
// that cross a link controlled at this level return via
// HandleDiscoveryArrival and populate the NIB; frames crossing links owned
// by an ancestor are reported upward by the receiving side's RecA.
//
// Bootstrap runs rounds bottom-up: leaves first (discovering physical
// links), then each ancestor level (discovering inter-G-switch links), per
// §2.2 "Data plane switches and links ... are discovered sequentially from
// bottom to top; controllers at each level can discover their ... links in
// parallel."
func (c *Controller) RunDiscovery() {
	for _, d := range c.Devices() {
		fr, err := d.Features()
		if err != nil {
			continue // its ports are unknown this round; the next round retries
		}
		for _, p := range fr.Ports {
			if !p.Up || p.External || p.Radio != "" {
				continue
			}
			f := &discovery.Frame{}
			f.Push(discovery.StackEntry{Controller: c.ID, Device: fr.Device, Port: p.ID})
			// A frame that cannot be emitted (port went down between the
			// Features snapshot and the emit) simply means the link is not
			// discovered this round — the next round retries every port.
			_ = d.EmitDiscovery(p.ID, f) //softmow:allow errdiscard discovery is periodic and self-healing, a lost frame is retried next round
		}
	}
}

// RediscoverDevice re-emits discovery frames from every eligible port of
// one device — the targeted companion of RunDiscovery. The liveness
// prober calls it when a suspect device's control channel heals, so the
// device's links re-enter the NIB (frames that complete the round trip
// re-Put their link with Up=true) without the cost of a topology-wide
// refresh. It fails when the device cannot give its features.
func (c *Controller) RediscoverDevice(id dataplane.DeviceID) error {
	d := c.Device(id)
	if d == nil {
		return nil
	}
	fr, err := d.Features()
	if err != nil {
		return err
	}
	for _, p := range fr.Ports {
		if !p.Up || p.External || p.Radio != "" {
			continue
		}
		f := &discovery.Frame{}
		f.Push(discovery.StackEntry{Controller: c.ID, Device: fr.Device, Port: p.ID})
		// Same contract as RunDiscovery: an emit that fails means this
		// link is not rediscovered now; the next probe-recovery or
		// periodic round retries.
		_ = d.EmitDiscovery(p.ID, f) //softmow:allow errdiscard discovery is periodic and self-healing, a lost frame is retried next round
	}
	return nil
}

// HandleDiscoveryArrival processes a discovery frame that re-entered the
// control plane at (dev, port) in this controller's topology (§4.1.2
// "return path"):
//
//   - if the popped stack entry carries this controller's ID, a link
//     between the entry's (device, port) and the arrival (dev, port) is
//     discovered and stored in the NIB;
//   - otherwise, if the stack is nonempty, the arrival point is translated
//     to this controller's exposed G-switch port and the frame is reported
//     to the parent;
//   - an empty stack (after popping a foreign entry) means the frame
//     cannot return to its initiator: it is dropped.
func (c *Controller) HandleDiscoveryArrival(dev dataplane.DeviceID, port dataplane.PortID, f *discovery.Frame) {
	entry, ok := f.Pop()
	if !ok {
		return
	}
	if entry.Controller == c.ID {
		c.NIB.PutLink(nib.Link{
			A:         dataplane.PortRef{Dev: entry.Device, Port: entry.Port},
			B:         dataplane.PortRef{Dev: dev, Port: port},
			Latency:   f.Meta.Latency,
			Bandwidth: f.Meta.Bandwidth,
			Up:        true,
		})
		c.mu.Lock()
		c.stats.LinksDiscovered++
		c.mu.Unlock()
		return
	}
	if f.Depth() == 0 {
		return // cannot return to the initiator: no link at any ancestor
	}
	pl := c.ParentLinkRef()
	ab := c.Abstraction()
	if pl == nil || ab == nil {
		return
	}
	// Translate the arrival point to the exposed border port.
	gport, ok := c.exposedPortFor(dataplane.PortRef{Dev: dev, Port: port})
	if !ok {
		return // arrival on a hidden port: not a border crossing
	}
	f.Receive = discovery.StackEntry{Controller: c.ID, Device: c.GSwitchID(), Port: gport}
	pl.DiscoveryArrival(gport, f)
}

// exposedPortFor maps an underlying (device, port) to this controller's
// exposed G-switch port.
func (c *Controller) exposedPortFor(ref dataplane.PortRef) (dataplane.PortID, bool) {
	ab := c.Abstraction()
	if ab == nil {
		return 0, false
	}
	for _, gp := range ab.GSwitch.Ports {
		if gp.Underlying == ref {
			return gp.ID, true
		}
	}
	return 0, false
}

// sourceGPort maps a path source in this controller's topology to the
// G-switch port exposed to the parent: directly for border ports and
// border G-BS attachments, via the aggregated internal G-BS for internal
// radio attachments.
func (c *Controller) sourceGPort(ref dataplane.PortRef) (dataplane.PortID, bool) {
	if gport, ok := c.exposedPortFor(ref); ok {
		return gport, true
	}
	ab := c.Abstraction()
	if ab == nil {
		return 0, false
	}
	c.mu.Lock()
	cfg := c.cfg
	c.mu.Unlock()
	for _, r := range cfg.Radios {
		if r.Attach == ref && !r.Border {
			for _, g := range ab.GBSes {
				if !g.Border {
					return g.AttachPort, true
				}
			}
		}
	}
	return 0, false
}

// RecAEmitDiscovery relays a parent-originated discovery emission through
// this controller: the G-switch port is mapped to its underlying
// attachment, this controller's stack entry is pushed, and the emission
// recurses toward the physical plane (§4.1.2 "origination path").
func (c *Controller) RecAEmitDiscovery(gport dataplane.PortID, f *discovery.Frame) error {
	ab := c.Abstraction()
	if ab == nil {
		return fmt.Errorf("core: %s has no abstraction yet", c.ID)
	}
	gp := ab.GSwitch.PortByID(gport)
	if gp == nil {
		return fmt.Errorf("core: %s: no exposed port %d", c.ID, gport)
	}
	under := gp.Underlying
	d := c.Device(under.Dev)
	if d == nil {
		return fmt.Errorf("core: %s: underlying device %s not attached", c.ID, under.Dev)
	}
	f.Push(discovery.StackEntry{Controller: c.ID, Device: under.Dev, Port: under.Port})
	return d.EmitDiscovery(under.Port, f)
}
