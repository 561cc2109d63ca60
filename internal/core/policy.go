package core

import (
	"fmt"
	"time"

	"repro/internal/dataplane"
	"repro/internal/routing"
)

// Service policies (§2.1) direct traffic through a partially ordered set
// of middlebox types before it leaves the WAN: "A service policy is then
// met by directing traffic through a partially ordered set (also known as
// poset) of middlebox types. Given the location and utilization of
// middlebox instances, the controller can implement a poset using various
// combinations of physical instances."
//
// The controller implements a chain by routing leg-by-leg through chosen
// instances: source → mb₁ → … → mbₙ → egress. Every leg carries the same
// path label; at each waypoint switch the label is preserved across the
// middlebox bounce, so the §4.3 single-label invariant still holds.

// PolicyRoute is a policy-compliant end-to-end route.
type PolicyRoute struct {
	// Legs are the consecutive path segments: source→mb₁, mb₁→mb₂, …,
	// mbₙ→egress.
	Legs []*routing.Path
	// Waypoints are the chosen middlebox attachment ports, one per chain
	// element.
	Waypoints []dataplane.PortRef
	// Option is the chosen egress.
	Option RouteOption
	// TotalCost accumulates all legs.
	TotalCost routing.Cost
}

// middleboxPorts returns candidate attachment ports for a middlebox type
// in this controller's topology: physical attachments at leaves, child
// G-middlebox ports above. Candidates are ordered by utilization so the
// least-loaded instance is preferred.
func (c *Controller) middleboxPorts(mt dataplane.MiddleboxType) []dataplane.PortRef {
	type cand struct {
		ref  dataplane.PortRef
		util float64
	}
	var cands []cand
	c.mu.Lock()
	cfg := c.cfg
	c.mu.Unlock()
	for _, m := range cfg.Middleboxes {
		if m.Type != mt {
			continue
		}
		util := 0.0
		if m.Capacity > 0 {
			util = m.Load / m.Capacity
		}
		cands = append(cands, cand{ref: m.Attach, util: util})
	}
	// stable order: utilization, then ref
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j], cands[j-1]
			if a.util < b.util || (a.util == b.util && (a.ref.Dev < b.ref.Dev ||
				(a.ref.Dev == b.ref.Dev && a.ref.Port < b.ref.Port))) {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			} else {
				break
			}
		}
	}
	out := make([]dataplane.PortRef, len(cands))
	for i, cd := range cands {
		out[i] = cd.ref
	}
	return out
}

// RouteWithPolicy computes a route from src to an egress for the prefix
// that traverses the policy chain in order. It fails when any chain
// element has no instance in this controller's region (§4.2: "it checks
// whether the middlebox poset can be met in its logical region").
//
//softmow:allow testonly ROADMAP item 4: the policy bearer op (service chains) drives it
func (c *Controller) RouteWithPolicy(req RouteRequest, policy dataplane.ServicePolicy) (*PolicyRoute, error) {
	opts := c.RouteOptions(req.Prefix)
	if len(opts) == 0 {
		return nil, ErrNoRoute
	}
	g := c.Graph()

	// Choose one instance per chain element: greedily the least-utilized
	// reachable candidate from the current waypoint.
	var waypoints []dataplane.PortRef
	var legs []*routing.Path
	var total routing.Cost
	cur := req.From
	for _, mt := range policy.Chain {
		cands := c.middleboxPorts(mt)
		if len(cands) == 0 {
			return nil, fmt.Errorf("%w: no %s instance in region of %s", ErrNoRoute, mt, c.ID)
		}
		var leg *routing.Path
		var chosen dataplane.PortRef
		for _, cand := range cands {
			p, err := g.ShortestPath(cur, cand, req.Objective, req.Constraints)
			if err != nil {
				continue
			}
			leg = p
			chosen = cand
			break
		}
		if leg == nil {
			return nil, fmt.Errorf("%w: no path to a %s instance", ErrNoRoute, mt)
		}
		legs = append(legs, leg)
		waypoints = append(waypoints, chosen)
		total = addCost(total, leg.Cost)
		cur = chosen
	}

	// Final leg to the best egress.
	var best *PolicyRoute
	for _, opt := range opts {
		p, err := g.ShortestPath(cur, opt.Ref, req.Objective, req.Constraints)
		if err != nil {
			continue
		}
		cand := &PolicyRoute{
			Legs:      append(append([]*routing.Path(nil), legs...), p),
			Waypoints: waypoints,
			Option:    opt,
			TotalCost: addCost(total, p.Cost),
		}
		if best == nil || cand.better(best, req.Objective) {
			best = cand
		}
	}
	if best == nil {
		return nil, ErrNoRoute
	}
	return best, nil
}

func (pr *PolicyRoute) better(o *PolicyRoute, obj routing.Objective) bool {
	if obj == routing.MinLatency {
		if pr.TotalCost.Latency != o.TotalCost.Latency {
			return pr.TotalCost.Latency < o.TotalCost.Latency
		}
		return pr.TotalCost.Hops < o.TotalCost.Hops
	}
	if pr.TotalCost.Hops != o.TotalCost.Hops {
		return pr.TotalCost.Hops < o.TotalCost.Hops
	}
	return pr.TotalCost.Latency < o.TotalCost.Latency
}

func addCost(a, b routing.Cost) routing.Cost {
	out := routing.Cost{
		Hops:       a.Hops + b.Hops,
		Latency:    a.Latency + b.Latency,
		Bottleneck: a.Bottleneck,
	}
	if a.Bottleneck == 0 || (b.Bottleneck > 0 && b.Bottleneck < a.Bottleneck) {
		out.Bottleneck = b.Bottleneck
	}
	return out
}

// SetupPolicyPath installs a policy-compliant path: every leg shares one
// path label; at each waypoint the traffic exits to the middlebox port and
// the return traffic (same port, same label) continues on the next leg.
//
//softmow:allow testonly ROADMAP item 4: the policy bearer op (service chains) drives it
func (c *Controller) SetupPolicyPath(match dataplane.Match, pr *PolicyRoute) (PathID, error) {
	if len(pr.Legs) == 0 {
		return 0, ErrEmptyPath
	}
	start := time.Now() //softmow:allow determinism wall clock feeds the setup-latency histogram only, never control decisions
	id, owner, version := c.allocPath()

	// All legs accumulate into one batch: a waypoint switch shared by two
	// consecutive legs collects both rules behind a single barrier, and a
	// flush failure rolls the whole chain back before the record exists.
	label := c.alloc.Next()
	b := newRuleBatch()
	var devices []dataplane.DeviceID
	var total routing.Cost
	for i, leg := range pr.Legs {
		segs := leg.Segments()
		if len(segs) == 0 {
			return 0, ErrEmptyPath
		}
		total = addCost(total, leg.Cost)
		for _, seg := range segs {
			devices = append(devices, seg.Dev)
		}
		first := i == 0
		last := i == len(pr.Legs)-1
		c.appendPolicyLeg(b, match, label, leg, first, last, version)
	}
	if err := c.flushBatch(b, owner, version); err != nil {
		return 0, err
	}
	rec := &PathRecord{
		ID: id, Owner: owner, Match: match, Cost: total,
		Devices: dedupeDevices(devices), Active: true, Version: version,
	}
	c.mu.Lock()
	c.paths[id] = rec
	c.mu.Unlock()
	setupLatency.Observe(time.Since(start))
	return id, nil
}

func dedupeDevices(in []dataplane.DeviceID) []dataplane.DeviceID {
	seen := make(map[dataplane.DeviceID]bool, len(in))
	var out []dataplane.DeviceID
	for _, d := range in {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// appendPolicyLeg accumulates one leg's rules into b. The first leg
// classifies the flow and pushes the label; middle legs begin at a
// middlebox return port; the final leg ends with pop + egress.
func (c *Controller) appendPolicyLeg(b *ruleBatch, match dataplane.Match, label dataplane.Label, leg *routing.Path, first, last bool, version int) {
	segs := leg.Segments()
	for i, seg := range segs {
		var rule dataplane.Rule
		switch {
		case first && i == 0:
			m := match
			m.MatchNoLabel = true
			m.HasLabel = false
			m.InPort = seg.InPort
			rule = dataplane.Rule{Priority: 100 + version, Match: m,
				Actions: []dataplane.Action{dataplane.Push(label), dataplane.Output(seg.OutPort)}}
		case last && i == len(segs)-1:
			rule = dataplane.Rule{Priority: 60,
				Match:   dataplane.Match{InPort: seg.InPort, HasLabel: true, Label: label, QoS: -1},
				Actions: []dataplane.Action{dataplane.Pop(), dataplane.Output(seg.OutPort)}}
		default:
			// Transit — including the hand-off into a middlebox port at a
			// leg boundary and the continuation from it: the label rides
			// across the bounce untouched.
			rule = dataplane.Rule{Priority: 60,
				Match:   dataplane.Match{InPort: seg.InPort, HasLabel: true, Label: label, QoS: -1},
				Actions: []dataplane.Action{dataplane.Output(seg.OutPort)}}
		}
		b.add(seg.Dev, rule)
	}
}
