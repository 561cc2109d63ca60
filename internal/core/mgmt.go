package core

import (
	"fmt"
	"sort"

	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/reca"
)

// Hierarchy is the management plane's view of one SoftMoW deployment: the
// controller tree plus the physical network (§3.3: "The management plane
// bootstraps the recursive control plane. It configures all controllers in
// the hierarchy via dedicated channels").
type Hierarchy struct {
	Net    *dataplane.Network
	Root   *Controller
	Leaves []*Controller
	// All lists every controller, leaves first, then ascending levels.
	All []*Controller
}

// LeafSpec configures one leaf controller.
type LeafSpec struct {
	ID          string
	Switches    []dataplane.DeviceID
	Radios      []reca.RadioAttachment
	Middleboxes []reca.MiddleboxAttachment
	// BSGroup maps base stations under this leaf to their group.
	BSGroup map[dataplane.DeviceID]dataplane.DeviceID
}

// NewTwoLevel builds and bootstraps the 2-level hierarchy the evaluation
// uses (§7.2: "a two-level architecture with 4 leaf regions"): leaves
// discover their physical regions and abstract them; the root discovers
// the inter-G-switch links.
func NewTwoLevel(net *dataplane.Network, rootID string, specs []LeafSpec) (*Hierarchy, error) {
	leaves := make([]*Controller, 0, len(specs))
	for i, spec := range specs {
		leaf := NewController(spec.ID, 1, i)
		if err := BootstrapLeaf(net, leaf, spec); err != nil {
			return nil, err
		}
		leaves = append(leaves, leaf)
	}
	return AssembleTwoLevel(net, NewController(rootID, 2, len(leaves)), leaves), nil
}

// AssembleTwoLevel is the root's bootstrap: it attaches the bootstrapped
// leaves under root in order, runs discovery of the inter-G-switch links,
// then derives the root's config, radio index and abstraction
// (RefreshDerived). It returns the hierarchy the two levels form.
func AssembleTwoLevel(net *dataplane.Network, root *Controller, leaves []*Controller) *Hierarchy {
	for _, leaf := range leaves {
		root.AttachChild(leaf)
	}
	root.RunDiscovery()
	RefreshDerived(root)
	return &Hierarchy{Net: net, Root: root, Leaves: leaves,
		All: append(append([]*Controller{}, leaves...), root)}
}

// NewThreeLevel builds a 3-level hierarchy: named groups of leaves under
// mid-level controllers under one root (Fig. 1's shape). isBorder decides,
// for a mid-level controller, whether a leaf-exposed border G-BS remains a
// border at the mid level (nil keeps leaf flags).
func NewThreeLevel(net *dataplane.Network, rootID string, groups map[string][]LeafSpec, isBorder func(mid string, g dataplane.GBSInfo) bool) (*Hierarchy, error) {
	h := &Hierarchy{Net: net}
	names := make([]string, 0, len(groups))
	total := 0
	for name, specs := range groups {
		names = append(names, name)
		total += len(specs)
	}
	sort.Strings(names)

	idx := 0
	midIdx := total
	var mids []*Controller
	for _, name := range names {
		var leafCtrls []*Controller
		for _, spec := range groups[name] {
			leaf := NewController(spec.ID, 1, idx)
			idx++
			if err := h.initLeaf(leaf, spec); err != nil {
				return nil, err
			}
			h.Leaves = append(h.Leaves, leaf)
			h.All = append(h.All, leaf)
			leafCtrls = append(leafCtrls, leaf)
		}
		mid := NewController(name, 2, midIdx)
		midIdx++
		for _, leaf := range leafCtrls {
			mid.AttachChild(leaf)
		}
		var oracle func(dataplane.GBSInfo) bool
		if isBorder != nil {
			name := name
			oracle = func(g dataplane.GBSInfo) bool { return isBorder(name, g) }
		}
		h.finishLevelWith(mid, oracle)
		mids = append(mids, mid)
		h.All = append(h.All, mid)
	}
	root := NewController(rootID, 3, midIdx)
	for _, mid := range mids {
		root.AttachChild(mid)
	}
	h.Root = root
	h.All = append(h.All, root)
	h.finishLevel(root)
	return h, nil
}

func (h *Hierarchy) initLeaf(leaf *Controller, spec LeafSpec) error {
	for _, swID := range spec.Switches {
		sw := h.Net.Switch(swID)
		if sw == nil {
			return fmt.Errorf("core: leaf %s: unknown switch %s", spec.ID, swID)
		}
		leaf.AttachDevice(NewSwitchDevice(h.Net, sw))
	}
	leaf.SetConfig(reca.Config{Radios: spec.Radios, Middleboxes: spec.Middleboxes})
	groupAttach := make(map[dataplane.DeviceID]dataplane.PortRef, len(spec.Radios))
	for _, r := range spec.Radios {
		groupAttach[r.ID] = r.Attach
	}
	leaf.SetRadioIndex(spec.BSGroup, groupAttach)
	leaf.RunDiscovery()
	leaf.ComputeAbstraction()
	return nil
}

// BootstrapLeaf attaches a leaf controller to its region's switches and
// runs its bootstrap (config, radio index, discovery, abstraction) outside
// any Hierarchy — the entry point for distributed deployments where a
// region process builds only its own slice of the data plane and the tree
// is assembled over the northbound wire instead of AttachChild.
func BootstrapLeaf(net *dataplane.Network, leaf *Controller, spec LeafSpec) error {
	h := &Hierarchy{Net: net}
	return h.initLeaf(leaf, spec)
}

// finishLevel completes a non-leaf controller's bootstrap.
func (h *Hierarchy) finishLevel(c *Controller) { h.finishLevelWith(c, nil) }

func (h *Hierarchy) finishLevelWith(c *Controller, isBorder func(dataplane.GBSInfo) bool) {
	c.RunDiscovery()
	c.SetConfig(DerivedConfig(c, isBorder))
	indexRadioFromChildren(c)
	c.ComputeAbstraction()
}

// DerivedConfig builds a non-leaf controller's reca.Config from its
// children's exposed G-BSes and G-middleboxes. isBorder overrides the
// border flag (nil keeps the children's flags — correct for 2-level
// deployments where every leaf-border G-BS stays border).
func DerivedConfig(c *Controller, isBorder func(dataplane.GBSInfo) bool) reca.Config {
	var cfg reca.Config
	for _, d := range c.NIB.Devices(dataplane.KindGSwitch) {
		for _, g := range d.GBSes {
			border := g.Border
			if isBorder != nil {
				border = isBorder(g)
			}
			cfg.Radios = append(cfg.Radios, reca.RadioAttachment{
				ID:           g.ID,
				Attach:       dataplane.PortRef{Dev: d.ID, Port: g.AttachPort},
				Border:       border,
				Centroid:     g.Centroid,
				Constituents: g.Groups,
			})
		}
		for _, m := range d.GMiddleboxes {
			ports := m.AttachPorts
			var attach dataplane.PortRef
			if len(ports) > 0 {
				attach = dataplane.PortRef{Dev: d.ID, Port: ports[0]}
			}
			cfg.Middleboxes = append(cfg.Middleboxes, reca.MiddleboxAttachment{
				ID: m.ID, Type: m.Type, Attach: attach,
				Capacity: m.Capacity, Load: m.Load,
			})
		}
	}
	return cfg
}

// indexRadioFromChildren fills the controller's radio index so the
// mobility app can route from child-exposed G-BSes. The index is
// reconciled, not merged: after a reconfiguration moves a group between
// children, the group's old attachment (on the source child's G-switch)
// must disappear, or handovers would keep routing from the stale port.
func indexRadioFromChildren(c *Controller) {
	groupAttach := make(map[dataplane.DeviceID]dataplane.PortRef)
	for _, d := range c.NIB.Devices(dataplane.KindGSwitch) {
		for _, g := range d.GBSes {
			groupAttach[g.ID] = dataplane.PortRef{Dev: d.ID, Port: g.AttachPort}
		}
	}
	c.ReconcileRadioIndex(nil, groupAttach)
}

// RefreshDerived re-derives a non-leaf controller's configuration and
// radio index from its children's current exposures and recomputes its
// abstraction. The management plane calls it after a reconfiguration
// (§5.3.2) so the parent's G-BS attachment points track the moved groups.
func RefreshDerived(c *Controller) {
	c.SetConfig(DerivedConfig(c, nil))
	indexRadioFromChildren(c)
	c.ComputeAbstraction()
}

// Controller returns a controller by ID, or nil.
func (h *Hierarchy) Controller(id string) *Controller {
	for _, c := range h.All {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// LeafOf returns the leaf controller owning a device, or nil.
func (h *Hierarchy) LeafOf(dev dataplane.DeviceID) *Controller {
	for _, leaf := range h.Leaves {
		if leaf.Device(dev) != nil {
			return leaf
		}
	}
	return nil
}

// DistributeInterdomain loads one snapshot of interdomain routes into the
// leaf controllers hosting each egress point and propagates them up the
// tree (§4.2: "Leaf controllers forward the selected routes to their
// parent... This procedure finishes once the root receives interdomain
// routes from its G-switches").
func (h *Hierarchy) DistributeInterdomain(tbl *interdomain.Table, snapshot int) {
	for _, c := range h.All {
		c.ClearInterdomainRoutes()
	}
	for _, ep := range h.Net.EgressPoints() {
		leaf := h.LeafOf(ep.Switch)
		if leaf == nil {
			continue
		}
		routes := tbl.SelectRoutes(snapshot, ep.ID, ep.Switch)
		leaf.AddInterdomainRoutes(routes, dataplane.PortRef{Dev: ep.Switch, Port: ep.Port})
	}
	for _, leaf := range h.Leaves {
		leaf.PropagateInterdomain()
	}
}
