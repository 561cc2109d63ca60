package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/dataplane"
	"repro/internal/pathimpl"
	"repro/internal/routing"
	"repro/internal/southbound"
)

// PathID identifies an installed path at the controller that set it up.
type PathID int

// PathRecord is the path-table entry the mobility application caches
// (§5.1). The table holds live paths only: a record exists from the
// moment its rules are installed until TeardownPath releases it. The one
// inactive record the table can hold is a path RepairPaths found no
// alternative for, which waits there for its bearer's release.
type PathRecord struct {
	ID    PathID
	Owner string
	Match dataplane.Match
	Cost  routing.Cost
	// Devices lists every device that may hold the path's rules. Read-only:
	// until a reroute widens it, it is the shared route's own Devices().
	Devices []dataplane.DeviceID
	Active  bool
	Version int

	// lastPath is the currently installed route, kept for reroute
	// rollback (nil for policy paths); shared and immutable.
	lastPath *routing.Path
	// demand is the bandwidth reservation the path carries.
	demand float64
}

// ErrEmptyPath is returned for a path with no segments.
var ErrEmptyPath = errors.New("core: empty path")

// translationKind classifies a virtual rule for recursive translation.
type translationKind int

const (
	// kindClassify starts a path at a flow-classification point (a G-BS /
	// access switch).
	kindClassify translationKind = iota
	// kindTransit carries an ancestor's label across the region.
	kindTransit
	// kindTerminal ends the ancestor's path: labels pop before the final
	// output (an Internet egress or radio delivery).
	kindTerminal
)

// ruleCtx is the label context of one translated path installation.
type ruleCtx struct {
	kind translationKind
	// match is the flow match for classification rules.
	match dataplane.Match
	// labelIn is the ancestor label on packets entering the region
	// (transit/terminal).
	labelIn dataplane.Label
	// labelOut is the label packets must carry when leaving the region
	// (swap mode; NoLabel = leave unlabeled).
	labelOut dataplane.Label
	// pushChain lists ancestor labels to push at classification in stack
	// mode, bottom first (§4.3: "push the stack [R P]").
	pushChain []dataplane.Label
	// parentPops is the number of ancestor labels a terminal rule pops in
	// stack mode.
	parentPops int
	// demand is the bandwidth reservation (Mbps) each installed rule
	// carries (0 = best-effort).
	demand float64
}

// SetupPathWithDemand implements the northbound PathSetup(match fields,
// path) API (§4.3): it installs an end-to-end path in this controller's
// topology whose rules reserve demandMbps on every traversed link
// (admission control against the §3.2 bandwidth metrics; 0 is
// best-effort). Rules on gigantic switches translate recursively in the
// children; every physical packet carries at most one label under
// ModeSwap. Installation fails, with full rollback, when any link cannot
// admit the demand.
func (c *Controller) SetupPathWithDemand(match dataplane.Match, path *routing.Path, demandMbps float64) (PathID, error) {
	start := time.Now() //softmow:allow determinism wall clock feeds the setup-latency histogram only, never control decisions
	rec, b, err := c.preparePath(match, path, demandMbps)
	if err != nil {
		return 0, err
	}
	if err := c.flushBatch(b, rec.Owner, rec.Version); err != nil {
		// flushBatch already scrubbed this (only) version from every
		// device the batch touched; nothing else carries the fresh owner.
		return 0, err
	}
	c.recordPath(rec)
	setupLatency.Observe(time.Since(start))
	return rec.ID, nil
}

// preparePath draws a new path's ID, owner and version and builds its
// classification-led rules into a batch, programming nothing. The record
// it returns enters the path table (recordPath) only once the batch has
// been flushed.
func (c *Controller) preparePath(match dataplane.Match, path *routing.Path, demandMbps float64) (*PathRecord, *ruleBatch, error) {
	id, owner, version := c.allocPath()
	b := newRuleBatch()
	ctx := ruleCtx{kind: kindClassify, match: match, demand: demandMbps}
	if err := c.appendPathRules(b, ctx, path, owner, version); err != nil {
		return nil, nil, err
	}
	return &PathRecord{
		ID: id, Owner: owner, Match: match, Cost: path.Cost,
		Devices: path.Devices(), Active: true, Version: version,
		lastPath: path, demand: demandMbps,
	}, b, nil
}

// recordPath makes an installed path live in the path table.
func (c *Controller) recordPath(rec *PathRecord) {
	c.mu.Lock()
	c.paths[rec.ID] = rec
	c.mu.Unlock()
}

// allocPath draws the next path ID, its owner tag "<controller>/p<id>" and
// the version its first rules carry.
func (c *Controller) allocPath() (PathID, string, int) {
	c.mu.Lock()
	c.nextPath++
	id := c.nextPath
	version := c.versions.Next()
	c.mu.Unlock()
	var buf [40]byte
	tag := append(buf[:0], c.ID...)
	tag = append(tag, "/p"...)
	tag = strconv.AppendInt(tag, int64(id), 10)
	return id, string(tag), version
}

// pathCarries reports whether path id is live and already forwards match,
// with the same reservation, along exactly route's points — installing
// route for match again would change nothing in the data plane. The
// comparison runs under c.mu, so it sees a reroute (PrepareReroute,
// RepairPaths) either not at all or complete.
func (c *Controller) pathCarries(id PathID, match dataplane.Match, demandMbps float64, route *routing.Path) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.paths[id]
	return ok && rec.Active && rec.lastPath != nil && rec.Match == match &&
		rec.demand == demandMbps &&
		(rec.lastPath == route || slices.Equal(rec.lastPath.Points, route.Points)) // same graph, same *Path
}

// attached resolves device IDs to the handles still attached, in order.
func (c *Controller) attached(ids []dataplane.DeviceID) []Device {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attachedLocked(ids)
}

// attachedLocked is attached for a caller holding mu.
func (c *Controller) attachedLocked(ids []dataplane.DeviceID) []Device {
	devs := make([]Device, 0, len(ids))
	for _, id := range ids {
		if d := c.devices[id]; d != nil {
			devs = append(devs, d)
		}
	}
	return devs
}

// Path returns a live path's record; a released path is not found.
func (c *Controller) Path(id PathID) (PathRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.paths[id]
	if !ok {
		return PathRecord{}, false
	}
	return *r, true
}

// NumPaths reports active path count.
//
//softmow:allow testonly read-only probe: chaos, core and experiments tests count active paths
func (c *Controller) NumPaths() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.paths {
		if r.Active {
			n++
		}
	}
	return n
}

// TeardownPath removes a path's rules everywhere (recursively through
// children) and forgets the record (§5.1 deactivatePath). Release is
// idempotent: tearing down an ID this controller issued and has already
// released is a no-op that programs nothing; an ID it never issued is an
// error.
func (c *Controller) TeardownPath(id PathID) error {
	c.mu.Lock()
	rec, ok := c.paths[id]
	delete(c.paths, id)
	issued := id > 0 && id <= c.nextPath
	c.mu.Unlock()
	if !ok {
		if issued {
			return nil
		}
		return fmt.Errorf("core: unknown path %d", id)
	}
	start := time.Now() //softmow:allow determinism wall clock feeds the teardown-latency histogram only, never control decisions
	// Teardown is best-effort: the record is already gone, removals are
	// idempotent filters, and a device that failed here is either gone
	// (its rules died with it) or will be scrubbed by a later delete. The
	// deletes fan out with pipelined fences, so a multi-region path tears
	// down in one wire round trip.
	//softmow:allow errdiscard best-effort teardown of a released path
	_ = c.removeOwned(c.attached(rec.Devices), southbound.FlowDeleteOwner, rec.Owner, 0)
	teardownLatency.Observe(time.Since(start))
	return nil
}

// PrepareReroute installs a new version of an active path alongside the
// old one (§6 consistent path setup: "the new path and packets are
// assigned a new version number"). New classification rules carry a higher
// priority, so new packets take the new path immediately, while "packets
// with the old version number can still use old rules to guarantee
// reachability". Call CommitReroute to retire the old version.
func (c *Controller) PrepareReroute(id PathID, newPath *routing.Path) error {
	c.mu.Lock()
	rec, ok := c.paths[id]
	if !ok || !rec.Active {
		c.mu.Unlock()
		return fmt.Errorf("core: path %d not active", id)
	}
	match := rec.Match
	owner := rec.Owner
	demand := rec.demand
	version := c.versions.Next()
	c.mu.Unlock()

	ctx := ruleCtx{kind: kindClassify, match: match, demand: demand}
	if err := c.installPathRules(ctx, newPath, owner, version); err != nil {
		// §6: rollback is version-exact (flushBatch scrubbed only the new
		// version), so the old version's rules were never disturbed —
		// make-before-break means they kept carrying traffic throughout.
		// The record simply stays at its previous version; no
		// remove-everything-and-reinstall round is needed.
		return err
	}
	c.mu.Lock()
	if c.paths[id] != rec {
		// The bearer released the path while its new version was being
		// installed: the teardown's deletes may have passed these installs
		// on the wire, so scrub the version nobody will ever release.
		c.mu.Unlock()
		//softmow:allow errdiscard best-effort scrub of a version installed for a path released meanwhile
		_ = c.removeOwned(c.attached(newPath.Devices()), southbound.FlowDeleteOwnerVersion, owner, version)
		return fmt.Errorf("core: path %d not active", id)
	}
	rec.Version = version
	rec.Cost = newPath.Cost
	// Shared route slices are full, so this append copies.
	rec.Devices = dedupeDevices(append(rec.Devices, newPath.Devices()...))
	rec.lastPath = newPath
	c.mu.Unlock()
	return nil
}

// CommitReroute removes the pre-update rule versions of a path, completing
// a consistent update.
func (c *Controller) CommitReroute(id PathID) error {
	c.mu.Lock()
	rec, ok := c.paths[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown path %d", id)
	}
	return c.removeOwned(c.attached(rec.Devices), southbound.FlowDeleteOwnerBefore, rec.Owner, rec.Version)
}

// ReroutePath performs a full consistent update: make-before-break with
// versioned rules.
func (c *Controller) ReroutePath(id PathID, newPath *routing.Path) error {
	start := time.Now() //softmow:allow determinism wall clock feeds the reroute-latency histogram only, never control decisions
	if err := c.PrepareReroute(id, newPath); err != nil {
		return err
	}
	if err := c.CommitReroute(id); err != nil {
		return err
	}
	rerouteLatency.Observe(time.Since(start))
	return nil
}

// TranslateRules is the RecA agent's entry point for virtual rules pushed
// by the parent onto this controller's exposed G-switch (§4.3): the rules —
// all of one owner and version — are mapped onto internal paths and
// installed recursively as one batch, and the devices the batch is issued
// to join the owner's delete set (RemoveTranslated).
//
// With then nil the call waits, and a flush failure scrubs exactly that
// version from the devices the batch touched (flushBatch rollback), which
// is all this call can have installed. Otherwise it returns nil at once and
// then hears from the last fence, and nothing is rolled back here: the
// parent's flush rollback, a FlowDeleteOwnerVersion that reaches
// RemoveTranslated only after this translation has completed, scrubs the
// version (logicalDevice, northbound.ParentConn).
func (c *Controller) TranslateRules(rules []dataplane.Rule, then func(error)) error {
	b, err := c.translationBatch(rules)
	if err != nil || b.size == 0 {
		return settle(err, then)
	}
	owner, version := rules[0].Owner, rules[0].Version
	c.noteTranslated(b, owner, version)
	if then == nil {
		return c.flushBatch(b, owner, version)
	}
	if _, err := c.issueBatch(b, owner, version, then); err != nil {
		then(err)
	}
	return nil
}

// settle is the early exit of a verb with a nil-blocks then: err is
// returned to a blocking caller, or handed to then.
func settle(err error, then func(error)) error {
	if then == nil {
		return err
	}
	then(err)
	return nil
}

// translationBatch maps a parent's virtual rules onto internal paths and
// accumulates their rules into one batch, programming nothing.
func (c *Controller) translationBatch(rules []dataplane.Rule) (*ruleBatch, error) {
	b := newRuleBatch()
	for i := range rules {
		if err := c.appendTranslation(b, rules[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendTranslation maps one virtual rule onto internal paths and
// accumulates their rules into b, programming nothing.
func (c *Controller) appendTranslation(b *ruleBatch, r dataplane.Rule) error {
	c.mu.Lock()
	c.stats.RulesTranslated++
	c.mu.Unlock()
	ab := c.Abstraction()
	if ab == nil {
		return fmt.Errorf("core: %s: no abstraction for translation", c.ID)
	}

	dec := decodeActions(r.Actions)
	if !dec.hasOut {
		return fmt.Errorf("core: %s: virtual rule without output: %v", c.ID, &r)
	}
	outGp := ab.GSwitch.PortByID(dec.out)
	if outGp == nil {
		return fmt.Errorf("core: %s: virtual rule outputs to unknown port %d", c.ID, dec.out)
	}
	dst := outGp.Underlying
	g := c.Graph()

	if r.Match.MatchNoLabel {
		// Classification: fan out to the constituent attachments of the
		// G-BS referenced by the match's in-port (§4.3: installed "into
		// constituent access switches, each attached to a component
		// G-BS").
		srcs, err := c.classificationSources(r.Match.InPort)
		if err != nil {
			return err
		}
		ctx := ruleCtx{kind: kindClassify, pushChain: dec.pushes, demand: r.Demand}
		if n := len(dec.pushes); n > 0 {
			ctx.labelOut = dec.pushes[n-1]
		}
		// The whole fan-out accumulates into one batch: every source's
		// route must exist before a single rule is programmed, shared
		// devices between sources collect all their rules behind one
		// barrier, and a flush failure rolls the entire fan-out back
		// version-exactly (older versions of the same owner may still
		// carry traffic mid-update, §6).
		for _, src := range srcs {
			p, err := g.ShortestPath(src, dst, routing.MinHops, routing.Constraints{})
			if err != nil {
				return fmt.Errorf("core: %s: no internal path %v->%v: %w", c.ID, src, dst, err)
			}
			ctx.match = r.Match
			ctx.match.InPort = src.Port
			if err := c.appendPathRules(b, ctx, p, r.Owner, r.Version); err != nil {
				return err
			}
		}
		return nil
	}

	if !r.Match.HasLabel {
		return fmt.Errorf("core: %s: virtual rule matches neither label nor flow: %v", c.ID, &r)
	}
	inGp := ab.GSwitch.PortByID(r.Match.InPort)
	if inGp == nil {
		return fmt.Errorf("core: %s: virtual rule from unknown port %d", c.ID, r.Match.InPort)
	}
	p, err := g.ShortestPath(inGp.Underlying, dst, routing.MinHops, routing.Constraints{})
	if err != nil {
		return fmt.Errorf("core: %s: no internal path %v->%v: %w", c.ID, inGp.Underlying, dst, err)
	}

	ctx := ruleCtx{labelIn: r.Match.Label, demand: r.Demand}
	switch {
	case dec.hasSwap:
		// Swap-mode region egress rule: carry labelIn across, leave with
		// the swapped-to label.
		ctx.kind = kindTransit
		ctx.labelOut = dec.swapTo
	case dec.pops > 0:
		ctx.kind = kindTerminal
		ctx.parentPops = dec.pops
	default:
		ctx.kind = kindTransit
		ctx.labelOut = r.Match.Label
	}
	return c.appendPathRules(b, ctx, p, r.Owner, r.Version)
}

// RemoveTranslated executes a parent's delete command on this
// controller's exposed G-switch: the command travels unchanged, recursively,
// to the devices the owner's translations were issued to, in ID order (§6
// consistent updates and rollback). An owner this controller never
// translated — its rules may predate an HA promotion, a reattach or a
// reconfiguration — is deleted on every device, so no delete can miss a
// rule. It is the one place a FlowModCommand acquires its meaning on a
// G-switch: the ownerless FlowDeleteVersion (and FlowAdd) are refused
// before anything is removed, since a G-switch cannot scope them to the
// rules it translated for one owner. An accepted delete reports no error —
// deletes are idempotent filters and a detached device's rules died with
// it, so there is no failure mode the parent could act on. With then nil
// it waits; otherwise it returns nil at once and then receives the outcome.
func (c *Controller) RemoveTranslated(cmd southbound.FlowModCommand, owner string, version int, then func(error)) error {
	switch cmd {
	case southbound.FlowDeleteOwner, southbound.FlowDeleteOwnerBefore, southbound.FlowDeleteOwnerVersion:
	default:
		return settle(fmt.Errorf("core: %s: flow-mod command %d is not an owner-scoped delete", c.ID, cmd), then)
	}
	done := then
	if then != nil {
		done = func(error) { then(nil) }
	}
	//softmow:allow errdiscard idempotent delete, nothing for the parent to act on
	_ = c.removeOwnedThen(c.deleteTargets(cmd, owner, version), cmd, owner, version, done)
	return nil
}

// translatedSet is where a parent owner's translated rules went: the
// devices its batches were issued to, sorted by ID, and bounds on the
// versions that may still be installed there.
type translatedSet struct {
	devs   []dataplane.DeviceID
	lo, hi int
}

// noteTranslated adds the devices of a translation batch to owner's delete
// set, before the batch is issued.
func (c *Controller) noteTranslated(b *ruleBatch, owner string, version int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.translated[owner]
	if !ok {
		s = translatedSet{lo: version, hi: version}
	}
	s.lo, s.hi = min(s.lo, version), max(s.hi, version)
	for i := range b.devs {
		if j, found := slices.BinarySearch(s.devs, b.devs[i].dev); !found {
			s.devs = slices.Insert(s.devs, j, b.devs[i].dev)
		}
	}
	c.translated[owner] = s
}

// deleteTargets resolves the devices a parent's delete for owner must
// reach, and forgets the owner's set once the delete leaves none of its
// versions installed: on FlowDeleteOwner, or when the versions noted all
// fall in the deleted range (a failed setup's rollback).
func (c *Controller) deleteTargets(cmd southbound.FlowModCommand, owner string, version int) []Device {
	c.mu.Lock()
	s, ok := c.translated[owner]
	if !ok {
		c.mu.Unlock()
		return c.Devices()
	}
	switch {
	case cmd == southbound.FlowDeleteOwner,
		cmd == southbound.FlowDeleteOwnerBefore && s.hi < version,
		cmd == southbound.FlowDeleteOwnerVersion && s.lo == version && s.hi == version:
		delete(c.translated, owner)
	case cmd == southbound.FlowDeleteOwnerBefore:
		s.lo = max(s.lo, version)
		c.translated[owner] = s
	}
	devs := c.attachedLocked(s.devs)
	c.mu.Unlock()
	return devs
}

// classificationSources resolves a G-BS attach port to the underlying
// attachment points where classification rules must be installed.
func (c *Controller) classificationSources(gport dataplane.PortID) ([]dataplane.PortRef, error) {
	ab := c.Abstraction()
	gp := ab.GSwitch.PortByID(gport)
	if gp == nil || gp.GBS == "" {
		return nil, fmt.Errorf("core: %s: classification in-port %d is not a G-BS attachment", c.ID, gport)
	}
	var gbs *dataplane.GBSInfo
	for i := range ab.GBSes {
		if ab.GBSes[i].ID == gp.GBS {
			gbs = &ab.GBSes[i]
			break
		}
	}
	if gbs == nil {
		return nil, fmt.Errorf("core: %s: unknown G-BS %s", c.ID, gp.GBS)
	}
	c.mu.Lock()
	cfg := c.cfg
	c.mu.Unlock()
	if gbs.Border {
		for _, r := range cfg.Radios {
			if r.ID == gbs.ID {
				return []dataplane.PortRef{r.Attach}, nil
			}
		}
		return nil, fmt.Errorf("core: %s: border G-BS %s has no attachment", c.ID, gbs.ID)
	}
	// Aggregated internal G-BS: classify at every internal attachment.
	var out []dataplane.PortRef
	for _, r := range cfg.Radios {
		if !r.Border {
			out = append(out, r.Attach)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: %s: internal G-BS %s has no attachments", c.ID, gbs.ID)
	}
	return out, nil
}

// decoded is the action summary of a virtual rule.
type decoded struct {
	out     dataplane.PortID
	hasOut  bool
	pops    int
	pushes  []dataplane.Label
	swapTo  dataplane.Label
	hasSwap bool
}

func decodeActions(actions []dataplane.Action) decoded {
	var d decoded
	for _, a := range actions {
		switch a.Op {
		case dataplane.OpPopLabel:
			d.pops++
		case dataplane.OpPushLabel:
			d.pushes = append(d.pushes, a.Label)
		case dataplane.OpSwapLabel:
			d.swapTo = a.Label
			d.hasSwap = true
		case dataplane.OpOutput:
			d.out = a.Port
			d.hasOut = true
			return d
		}
	}
	return d
}

// installPathRules installs one path in this controller's topology under a
// label context: the path's rules are accumulated into per-device batches
// and flushed across the path devices with one barrier per device, the
// fences overlapped (flushBatch). Rules landing on G-switch devices recurse
// into children.
func (c *Controller) installPathRules(ctx ruleCtx, path *routing.Path, owner string, version int) error {
	b := newRuleBatch()
	if err := c.appendPathRules(b, ctx, path, owner, version); err != nil {
		return err
	}
	return c.flushBatch(b, owner, version)
}

// appendPathRules constructs one path's rules under a label context and
// accumulates them into b; nothing is programmed until the batch is
// flushed with the same owner and version (which flushBatch stamps onto
// every rule — version is needed here only for classify-rule priorities).
func (c *Controller) appendPathRules(b *ruleBatch, ctx ruleCtx, path *routing.Path, owner string, version int) error {
	segs := path.Segments()
	if len(segs) == 0 {
		return ErrEmptyPath
	}
	b.devs = slices.Grow(b.devs, len(segs)) // one entry per segment unless the path revisits a device
	install := func(devID dataplane.DeviceID, rule dataplane.Rule) error {
		rule.Demand = ctx.demand
		b.add(devID, rule)
		return nil
	}

	stack := c.Mode == pathimpl.ModeStack

	if len(segs) == 1 {
		seg := segs[0]
		var rule dataplane.Rule
		switch ctx.kind {
		case kindClassify:
			m := ctx.match
			m.MatchNoLabel = true
			m.HasLabel = false
			m.InPort = seg.InPort
			var actions []dataplane.Action
			if stack {
				for _, l := range ctx.pushChain {
					actions = append(actions, dataplane.Push(l))
				}
			} else if ctx.labelOut != dataplane.NoLabel {
				actions = append(actions, dataplane.Push(ctx.labelOut))
			}
			actions = append(actions, dataplane.Output(seg.OutPort))
			rule = dataplane.Rule{Priority: 100 + version, Match: m, Actions: actions}
		case kindTransit:
			m := dataplane.Match{InPort: seg.InPort, HasLabel: true, Label: ctx.labelIn, QoS: -1}
			var actions []dataplane.Action
			if !stack && ctx.labelOut != ctx.labelIn && ctx.labelOut != dataplane.NoLabel {
				actions = append(actions, dataplane.Swap(ctx.labelOut))
			}
			actions = append(actions, dataplane.Output(seg.OutPort))
			rule = dataplane.Rule{Priority: 60, Match: m, Actions: actions}
		case kindTerminal:
			pops := ctx.parentPops
			if pops == 0 {
				pops = 1
			}
			actions := make([]dataplane.Action, 0, pops+1)
			for i := 0; i < pops; i++ {
				actions = append(actions, dataplane.Pop())
			}
			actions = append(actions, dataplane.Output(seg.OutPort))
			rule = dataplane.Rule{
				Priority: 60,
				Match:    dataplane.Match{InPort: seg.InPort, HasLabel: true, Label: ctx.labelIn, QoS: -1},
				Actions:  actions,
			}
		}
		return install(seg.Dev, rule)
	}

	local := c.alloc.Next()
	first, last := segs[0], segs[len(segs)-1]

	// Ingress.
	switch ctx.kind {
	case kindClassify:
		m := ctx.match
		m.MatchNoLabel = true
		m.HasLabel = false
		m.InPort = first.InPort
		var actions []dataplane.Action
		if stack {
			for _, l := range ctx.pushChain {
				actions = append(actions, dataplane.Push(l))
			}
		}
		actions = append(actions, dataplane.Push(local), dataplane.Output(first.OutPort))
		if err := install(first.Dev, dataplane.Rule{Priority: 100 + version, Match: m, Actions: actions}); err != nil {
			return err
		}
	default:
		mode := pathimpl.ModeSwap
		if stack {
			mode = pathimpl.ModeStack
		}
		if err := install(first.Dev, pathimpl.IngressRule(mode, ctx.labelIn, local, first.InPort, first.OutPort, owner, version)); err != nil {
			return err
		}
	}

	// Transit middles.
	for _, seg := range segs[1 : len(segs)-1] {
		if err := install(seg.Dev, pathimpl.TransitRule(local, seg.InPort, seg.OutPort, owner, version)); err != nil {
			return err
		}
	}

	// Egress.
	var actions []dataplane.Action
	switch ctx.kind {
	case kindTerminal:
		pops := 1
		if stack {
			pops += ctx.parentPops
		}
		actions = make([]dataplane.Action, 0, pops+1)
		for i := 0; i < pops; i++ {
			actions = append(actions, dataplane.Pop())
		}
		actions = append(actions, dataplane.Output(last.OutPort))
	default: // classify and transit share egress shape
		if stack || ctx.labelOut == dataplane.NoLabel {
			actions = []dataplane.Action{dataplane.Pop(), dataplane.Output(last.OutPort)}
		} else {
			actions = []dataplane.Action{dataplane.Swap(ctx.labelOut), dataplane.Output(last.OutPort)}
		}
	}
	return install(last.Dev, dataplane.Rule{
		Priority: 60,
		Match:    dataplane.Match{InPort: last.InPort, HasLabel: true, Label: local, QoS: -1},
		Actions:  actions,
	})
}
