package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/routing"
)

// RouteOption is one way out of this controller's region toward a prefix:
// a local egress port plus the externally measured path quality (§4.2).
type RouteOption struct {
	Egress   string
	Ref      dataplane.PortRef // egress port in this controller's topology
	External interdomain.Metrics
}

// AddInterdomainRoutes stores selected interdomain routes for the egress
// port at ref (an RCP-style selection result, §4.2). Leaf controllers call
// this directly; ancestors receive translated routes via
// PropagateInterdomain.
func (c *Controller) AddInterdomainRoutes(routes []interdomain.Route, ref dataplane.PortRef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range routes {
		c.routes[r.Prefix] = append(c.routes[r.Prefix], RouteOption{
			Egress: r.Egress, Ref: ref, External: r.Metrics,
		})
	}
}

// ClearInterdomainRoutes drops all stored routes (used when replaying a new
// snapshot).
func (c *Controller) ClearInterdomainRoutes() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.routes = make(map[interdomain.PrefixID][]RouteOption)
}

// RouteOptions returns the stored options for a prefix. The slice is
// shared and read-only: a prefix's options are only ever appended to, and
// the slice is clipped, so a later append never writes where it can see.
func (c *Controller) RouteOptions(prefix interdomain.PrefixID) []RouteOption {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clip(c.routes[prefix])
}

// PropagateInterdomain forwards this controller's interdomain routes to its
// parent, translating egress refs to the exposed G-switch ports (§4.2:
// "Recursively, the RecA agent reads the interdomain routes from NIB and
// sends it to the parent (with translation to the G-switch)").
func (c *Controller) PropagateInterdomain() {
	_ = c.propagateInterdomain() //softmow:allow errdiscard in-process push cannot fail; remote children call PropagateInterdomainErr to surface wire errors
}

// PropagateInterdomainErr is PropagateInterdomain with the northbound
// push error surfaced — a remote child's serve loop uses it to
// acknowledge the propagation honestly.
func (c *Controller) PropagateInterdomainErr() error {
	return c.propagateInterdomain()
}

func (c *Controller) propagateInterdomain() error {
	pl := c.ParentLinkRef()
	if pl == nil {
		return nil
	}
	c.mu.Lock()
	// Snapshot in sorted prefix order: the append order below decides how
	// the parent's Route() breaks ties between equal-cost options, so map
	// iteration order must not leak into route selection.
	prefixes := make([]interdomain.PrefixID, 0, len(c.routes))
	for p := range c.routes {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	all := make([][]RouteOption, len(prefixes))
	for i, p := range prefixes {
		all[i] = append([]RouteOption(nil), c.routes[p]...)
	}
	c.mu.Unlock()
	gsw := c.GSwitchID()
	var out []TranslatedRoute
	for i, prefix := range prefixes {
		for _, opt := range all[i] {
			gport, ok := c.exposedPortFor(opt.Ref)
			if !ok {
				continue
			}
			out = append(out, TranslatedRoute{Prefix: prefix, Option: RouteOption{
				Egress:   opt.Egress,
				Ref:      dataplane.PortRef{Dev: gsw, Port: gport},
				External: opt.External,
			}})
		}
	}
	return pl.PushInterdomain(out)
}

// RouteRequest asks for an end-to-end path from a source port in the
// controller's topology to an Internet prefix.
type RouteRequest struct {
	From        dataplane.PortRef
	Prefix      interdomain.PrefixID
	Objective   routing.Objective
	Constraints routing.Constraints
	// MaxTotalHops bounds internal + external hops (0 = unbounded), the
	// §4.2 example's "maximum end-to-end hop count of 14".
	MaxTotalHops int
	// MaxTotalRTT bounds the end-to-end round-trip latency.
	MaxTotalRTT time.Duration
}

// RouteResult is a computed end-to-end route.
type RouteResult struct {
	// Path is the internal path in the resolving controller's topology.
	Path *routing.Path
	// Option is the chosen egress and its external metrics.
	Option RouteOption
	// TotalHops is internal + external hops.
	TotalHops int
	// TotalRTT is the end-to-end round-trip estimate (2× internal one-way
	// latency + external RTT).
	TotalRTT time.Duration
	// ResolvedBy is the controller that satisfied the request.
	ResolvedBy *Controller
}

// ErrNoRoute is returned when no controller up to the root can satisfy a
// request.
var ErrNoRoute = errors.New("core: no admissible route")

// Route computes the best end-to-end route in this controller's own region
// (locally optimal, §4.2). It does not delegate; use RouteRecursive for
// the full leaf-to-root procedure.
func (c *Controller) Route(req RouteRequest) (*RouteResult, error) {
	opts := c.RouteOptions(req.Prefix)
	if len(opts) == 0 {
		return nil, ErrNoRoute
	}
	g := c.Graph()
	// The best option is kept by value: only the answer is allocated.
	var best RouteResult
	for _, opt := range opts {
		p, err := g.ShortestPath(req.From, opt.Ref, req.Objective, req.Constraints)
		if err != nil {
			continue
		}
		r := RouteResult{
			Path:       p,
			Option:     opt,
			TotalHops:  p.Cost.Hops + opt.External.Hops,
			TotalRTT:   2*p.Cost.Latency + opt.External.RTT,
			ResolvedBy: c,
		}
		if best.Path == nil || betterTotal(&r, &best, req.Objective) {
			best = r
		}
	}
	if best.Path == nil {
		return nil, ErrNoRoute
	}
	if req.MaxTotalHops > 0 && best.TotalHops > req.MaxTotalHops {
		return nil, ErrNoRoute
	}
	if req.MaxTotalRTT > 0 && best.TotalRTT > req.MaxTotalRTT {
		return nil, ErrNoRoute
	}
	out := best
	return &out, nil
}

func betterTotal(a, b *RouteResult, obj routing.Objective) bool {
	if obj == routing.MinLatency {
		if a.TotalRTT != b.TotalRTT {
			return a.TotalRTT < b.TotalRTT
		}
		return a.TotalHops < b.TotalHops
	}
	if a.TotalHops != b.TotalHops {
		return a.TotalHops < b.TotalHops
	}
	return a.TotalRTT < b.TotalRTT
}

// RouteRecursive implements the §4.2 delegation procedure: try locally; on
// failure translate the source to the exposed G-switch port and delegate to
// the parent, up to the root.
func (c *Controller) RouteRecursive(req RouteRequest) (*RouteResult, error) {
	if res, err := c.Route(req); err == nil {
		return res, nil
	}
	parent := c.Parent()
	if parent == nil {
		return nil, ErrNoRoute
	}
	gport, ok := c.sourceGPort(req.From)
	if !ok {
		return nil, fmt.Errorf("%w: source %v not exposed to parent", ErrNoRoute, req.From)
	}
	c.mu.Lock()
	c.stats.DelegatedRequests++
	c.mu.Unlock()
	up := req
	up.From = dataplane.PortRef{Dev: c.GSwitchID(), Port: gport}
	return parent.RouteRecursive(up)
}
