package dataplane

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Match selects packets for a flow rule. Zero-valued fields are wildcards,
// except InPort where the wildcard is PortAny and the label where the
// wildcard is HasLabel == false.
type Match struct {
	InPort PortID
	// HasLabel gates the Label field: when true the rule matches only
	// packets whose top of stack equals Label.
	HasLabel bool
	Label    Label
	// MatchNoLabel matches only packets with an empty label stack (used by
	// access-switch classification rules). Mutually exclusive with HasLabel.
	MatchNoLabel bool
	UE           string
	SrcIP        string
	DstPrefix    string
	// QoS < 0 is the wildcard.
	QoS int
}

// Matches reports whether the packet arriving on inPort satisfies m.
func (m Match) Matches(inPort PortID, p *Packet) bool {
	if m.InPort != PortAny && m.InPort != inPort {
		return false
	}
	if m.HasLabel {
		top, ok := p.TopLabel()
		if !ok || top != m.Label {
			return false
		}
	}
	if m.MatchNoLabel && p.LabelDepth() != 0 {
		return false
	}
	if m.UE != "" && m.UE != p.UE {
		return false
	}
	if m.SrcIP != "" && m.SrcIP != p.SrcIP {
		return false
	}
	if m.DstPrefix != "" && m.DstPrefix != p.DstPrefix {
		return false
	}
	if m.QoS >= 0 && m.QoS != p.QoS {
		return false
	}
	return true
}

// String implements fmt.Stringer.
func (m Match) String() string {
	var parts []string
	if m.InPort != PortAny {
		parts = append(parts, fmt.Sprintf("in=%d", m.InPort))
	}
	if m.HasLabel {
		parts = append(parts, fmt.Sprintf("label=%d", m.Label))
	}
	if m.MatchNoLabel {
		parts = append(parts, "nolabel")
	}
	if m.UE != "" {
		parts = append(parts, "ue="+m.UE)
	}
	if m.SrcIP != "" {
		parts = append(parts, "src="+m.SrcIP)
	}
	if m.DstPrefix != "" {
		parts = append(parts, "dst="+m.DstPrefix)
	}
	if m.QoS >= 0 {
		parts = append(parts, fmt.Sprintf("qos=%d", m.QoS))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}

// ActionOp enumerates flow-rule action opcodes.
type ActionOp int

const (
	// OpOutput forwards the packet out of a port.
	OpOutput ActionOp = iota
	// OpPushLabel pushes a label onto the stack.
	OpPushLabel
	// OpPopLabel pops the top label.
	OpPopLabel
	// OpSwapLabel replaces the top label.
	OpSwapLabel
	// OpToController punts the packet to the controlling controller
	// (Packet-In).
	OpToController
	// OpDrop discards the packet.
	OpDrop
)

// String implements fmt.Stringer.
func (o ActionOp) String() string {
	switch o {
	case OpOutput:
		return "output"
	case OpPushLabel:
		return "push"
	case OpPopLabel:
		return "pop"
	case OpSwapLabel:
		return "swap"
	case OpToController:
		return "to-controller"
	case OpDrop:
		return "drop"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Action is one instruction in a rule's action list.
type Action struct {
	Op    ActionOp
	Port  PortID // for OpOutput
	Label Label  // for OpPushLabel / OpSwapLabel
}

// Output constructs an output action.
func Output(port PortID) Action { return Action{Op: OpOutput, Port: port} }

// Push constructs a push-label action.
func Push(l Label) Action { return Action{Op: OpPushLabel, Label: l} }

// Pop constructs a pop-label action.
func Pop() Action { return Action{Op: OpPopLabel} }

// Swap constructs a swap-label action.
func Swap(l Label) Action { return Action{Op: OpSwapLabel, Label: l} }

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a.Op {
	case OpOutput:
		return fmt.Sprintf("output:%d", a.Port)
	case OpPushLabel:
		return fmt.Sprintf("push:%d", a.Label)
	case OpSwapLabel:
		return fmt.Sprintf("swap:%d", a.Label)
	default:
		return a.Op.String()
	}
}

// Rule is a prioritized match-action flow entry. Higher Priority wins;
// ties break by insertion order (older first), mirroring OpenFlow.
type Rule struct {
	Priority int
	Match    Match
	Actions  []Action
	// Version tags the rule for consistent path updates (§6): packets of a
	// flow are matched against rules of their own version during updates.
	Version int
	// Owner records the installing controller, for accounting.
	Owner string
	// Demand is the bandwidth (Mbps) this rule's flow reserves on the link
	// behind its output port; 0 means best-effort. Reservations are taken
	// at install time and released at removal (admission control for the
	// §3.2 available-bandwidth metrics).
	Demand float64

	seq uint64
	// dead marks a rule removed through the owner index but not yet
	// compacted out of the ordered slice (a tombstone).
	dead bool
}

// String implements fmt.Stringer.
func (r *Rule) String() string {
	acts := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		acts[i] = a.String()
	}
	return fmt.Sprintf("prio=%d match[%s] actions[%s] v%d", r.Priority, r.Match, strings.Join(acts, " "), r.Version)
}

// FlowTable is a concurrency-safe prioritized rule table.
//
// Installs append and owner-scoped removals go through a per-owner index,
// so both are O(1)/O(k) amortized instead of shifting or scanning the
// whole table — at 100k+ installed rules the previous
// sorted-insert/linear-scan layout dominated bearer-setup CPU. The
// priority ordering Lookup needs is restored lazily: removals leave
// tombstones and installs may unsort the slice, and the next ordered read
// (Lookup, Rules) compacts and re-sorts once.
type FlowTable struct {
	mu sync.RWMutex
	// rules is the ordered view, guarded by mu. It may hold tombstones
	// (dead > 0) and may be unsorted (dirty) between ordered reads.
	rules []*Rule
	// byOwner indexes live rules by owner tag in insertion order,
	// guarded by mu.
	byOwner map[string][]*Rule
	// live / dead count non-tombstoned and tombstoned entries of rules,
	// guarded by mu.
	live int
	dead int
	// dirty records that rules is not sorted, guarded by mu.
	dirty   bool
	nextSeq uint64
	// misses counts lookups that matched no rule.
	misses atomic.Uint64
	// hits counts successful lookups.
	hits atomic.Uint64
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable { return &FlowTable{byOwner: make(map[string][]*Rule)} }

// Add installs a rule (copied). The rule is appended and indexed by owner;
// an append that breaks priority order only marks the table dirty — the
// next ordered read sorts once, so a burst of installs never pays a
// per-install shift of the whole table.
func (t *FlowTable) Add(r Rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.seq = t.nextSeq
	t.nextSeq++
	rc := r
	if !t.dirty && len(t.rules) > 0 {
		// Appending keeps the slice sorted only when the new rule sorts at
		// or after the current tail (priority desc, seq asc).
		if t.rules[len(t.rules)-1].Priority < rc.Priority {
			t.dirty = true
		}
	}
	t.rules = append(t.rules, &rc)
	if t.byOwner == nil {
		t.byOwner = make(map[string][]*Rule)
	}
	t.byOwner[rc.Owner] = append(t.byOwner[rc.Owner], &rc)
	t.live++
}

// compactLocked restores the invariant ordered reads rely on: tombstones
// are dropped and, if installs unsorted the slice, it is re-sorted by
// (priority desc, insertion order asc). Caller holds the write lock.
func (t *FlowTable) compactLocked() {
	if t.dead > 0 {
		kept := t.rules[:0]
		for _, r := range t.rules {
			if !r.dead {
				kept = append(kept, r)
			}
		}
		for i := len(kept); i < len(t.rules); i++ {
			t.rules[i] = nil
		}
		t.rules = kept
		t.dead = 0
	}
	if t.dirty {
		sort.Slice(t.rules, func(i, j int) bool {
			if t.rules[i].Priority != t.rules[j].Priority {
				return t.rules[i].Priority > t.rules[j].Priority
			}
			return t.rules[i].seq < t.rules[j].seq
		})
		t.dirty = false
	}
}

// Lookup returns the highest-priority rule matching the packet, or nil.
func (t *FlowTable) Lookup(inPort PortID, p *Packet) *Rule {
	t.mu.RLock()
	if t.dirty || t.dead > 0 {
		t.mu.RUnlock()
		t.mu.Lock()
		t.compactLocked()
		r := t.lookupLocked(inPort, p)
		t.mu.Unlock()
		return r
	}
	r := t.lookupLocked(inPort, p)
	t.mu.RUnlock()
	return r
}

// lookupLocked scans the ordered slice; caller holds mu (either mode) with
// the table compacted.
func (t *FlowTable) lookupLocked(inPort PortID, p *Packet) *Rule {
	for _, r := range t.rules {
		if r.Match.Matches(inPort, p) {
			t.hits.Add(1)
			return r
		}
	}
	t.misses.Add(1)
	return nil
}

// Len reports the number of installed rules.
func (t *FlowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Rules returns a snapshot of the installed rules in priority order.
func (t *FlowTable) Rules() []*Rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.compactLocked()
	out := make([]*Rule, len(t.rules))
	copy(out, t.rules)
	return out
}

// TakeIf deletes all rules for which pred returns true and returns them in
// priority order.
func (t *FlowTable) TakeIf(pred func(*Rule) bool) []*Rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.compactLocked()
	kept := t.rules[:0]
	var removed []*Rule
	for _, r := range t.rules {
		if pred(r) {
			removed = append(removed, r)
		} else {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(t.rules); i++ {
		t.rules[i] = nil
	}
	t.rules = kept
	t.live = len(kept)
	for _, r := range removed {
		t.unindexLocked(r)
	}
	return removed
}

// TakeOwnerIf deletes owner's rules for which pred returns true (nil
// matches all of them) and returns them in insertion order. This is the
// O(k) fast path behind every owner-scoped removal: only the owner's own
// bucket is visited, and the ordered slice keeps tombstones until the next
// ordered read compacts.
func (t *FlowTable) TakeOwnerIf(owner string, pred func(*Rule) bool) []*Rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	bucket := t.byOwner[owner]
	if len(bucket) == 0 {
		return nil
	}
	kept := bucket[:0]
	var removed []*Rule
	for _, r := range bucket {
		if pred == nil || pred(r) {
			r.dead = true
			removed = append(removed, r)
		} else {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		delete(t.byOwner, owner)
	} else {
		for i := len(kept); i < len(bucket); i++ {
			bucket[i] = nil
		}
		t.byOwner[owner] = kept
	}
	t.dead += len(removed)
	t.live -= len(removed)
	// Amortization: once tombstones outnumber live rules the next ordered
	// read would pay for them anyway, so fold the compaction in here.
	if t.dead > t.live {
		t.compactLocked()
	}
	return removed
}

// unindexLocked removes a rule pointer from its owner bucket; caller holds
// the write lock.
func (t *FlowTable) unindexLocked(r *Rule) {
	bucket := t.byOwner[r.Owner]
	for i, br := range bucket {
		if br == r {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(t.byOwner, r.Owner)
	} else {
		t.byOwner[r.Owner] = bucket
	}
}

// RemoveByOwner deletes all rules installed by owner.
func (t *FlowTable) RemoveByOwner(owner string) int {
	return len(t.TakeOwnerIf(owner, nil))
}

// Stats returns (hits, misses) lookup counters.
//
//softmow:allow testonly read-only probe: tests in seven packages read a table's lookup counters
func (t *FlowTable) Stats() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}
