package dataplane

import (
	"cmp"
	"fmt"
	"slices"
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
}

// String implements fmt.Stringer.
func (r Rule) String() string {
	acts := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		acts[i] = a.String()
	}
	return fmt.Sprintf("prio=%d match[%s] actions[%s] v%d", r.Priority, r.Match, strings.Join(acts, " "), r.Version)
}

// slot holds one installed rule by value in a FlowTable's slab.
type slot struct {
	rule Rule
	// seq is the rule's insertion sequence: equal priorities order by it.
	seq uint64
	// prev and next chain the owner's slots in insertion order. The
	// head's prev is the chain's tail; the tail's next is -1.
	prev, next int32
	// gen counts the slot's frees, so an ordered-view entry taken before
	// the last free is recognisably stale.
	gen uint32
}

// viewRef is one entry of a FlowTable's ordered view: a slab index and
// the slot's gen when the entry was made. An entry whose gen no longer
// matches its slot's is a tombstone.
type viewRef struct {
	slot int32
	gen  uint32
}

// FlowTable is a concurrency-safe prioritized rule table.
//
// Rules live by value in a slab of slots, so an installed rule costs no
// heap object of its own, and a removed rule's slot is zeroed and reused
// by the next install. Installs append and owner-scoped removals walk a
// per-owner chain through the slab, so both are O(1)/O(k) amortized
// instead of shifting or scanning the whole table. The priority ordering
// Lookup needs is restored lazily: removals leave tombstones in the
// ordered view and installs may unsort it, and the next ordered read
// (Lookup, Rules) compacts and re-sorts once.
type FlowTable struct {
	mu sync.RWMutex
	// slab holds every slot, live or free, in chunks of slabChunk, guarded
	// by mu. Growing the slab copies at most one chunk, so an install
	// into a table of 10⁶ rules never stalls behind a copy of all of
	// them.
	slab [][]slot
	// free lists the slab indices ready for reuse, guarded by mu.
	free []int32
	// order is the ordered view, guarded by mu. It may hold tombstones
	// (dead > 0) and may be unsorted (dirty) between ordered reads.
	order []viewRef
	// byOwner maps an owner tag to the head of its slot chain, guarded by
	// mu.
	byOwner map[string]int32
	// live / dead count live and tombstoned entries of order, guarded by
	// mu.
	live int
	dead int
	// dirty records that order is not sorted, guarded by mu.
	dirty bool
	// tailPrio is the priority of order's last entry, guarded by mu.
	tailPrio int
	nextSeq  uint64
	// misses counts lookups that matched no rule.
	misses atomic.Uint64
	// hits counts successful lookups.
	hits atomic.Uint64
}

// A slab chunk holds slabChunk slots: slot i is entry i&(slabChunk-1) of
// chunk i>>slabChunkBits.
const (
	slabChunkBits = 10
	slabChunk     = 1 << slabChunkBits
)

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable { return &FlowTable{byOwner: make(map[string]int32)} }

// slotLocked returns slab slot i; caller holds mu (either mode).
func (t *FlowTable) slotLocked(i int32) *slot {
	return &t.slab[i>>slabChunkBits][i&(slabChunk-1)]
}

// Add installs a rule (copied). The rule takes a free slot, is appended to
// the ordered view and chained to its owner; an append that breaks
// priority order only marks the table dirty — the next ordered read sorts
// once, so a burst of installs never pays a per-install shift of the
// whole table.
func (t *FlowTable) Add(r Rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		n := len(t.slab)
		if n == 0 || len(t.slab[n-1]) == slabChunk {
			t.slab = append(t.slab, nil)
			n++
		}
		i = int32((n-1)*slabChunk + len(t.slab[n-1]))
		t.slab[n-1] = append(t.slab[n-1], slot{})
	}
	s := t.slotLocked(i)
	s.rule, s.seq = r, t.nextSeq
	t.nextSeq++
	// Appending keeps the view sorted only when the new rule sorts at or
	// after the current tail (priority desc, seq asc).
	if !t.dirty && len(t.order) > 0 && t.tailPrio < r.Priority {
		t.dirty = true
	}
	t.order = append(t.order, viewRef{i, s.gen})
	t.tailPrio = r.Priority
	if h, ok := t.byOwner[r.Owner]; ok {
		tail := t.slotLocked(h).prev
		t.slotLocked(tail).next = i
		s.prev, s.next = tail, -1
		t.slotLocked(h).prev = i
	} else {
		t.byOwner[r.Owner] = i
		s.prev, s.next = i, -1
	}
	t.live++
}

// removeLocked takes slot i out of its owner's chain and frees it: the
// slot is zeroed, so the GC can drop the rule's strings and actions, and
// its gen moves on, so any ordered-view entry naming it is a tombstone.
// Caller holds the write lock.
func (t *FlowTable) removeLocked(i int32) {
	s := t.slotLocked(i)
	owner := s.rule.Owner
	if h := t.byOwner[owner]; i == h {
		if s.next < 0 {
			delete(t.byOwner, owner)
		} else {
			t.slotLocked(s.next).prev = s.prev
			t.byOwner[owner] = s.next
		}
	} else {
		t.slotLocked(s.prev).next = s.next
		if s.next < 0 {
			t.slotLocked(h).prev = s.prev
		} else {
			t.slotLocked(s.next).prev = s.prev
		}
	}
	*s = slot{gen: s.gen + 1}
	t.free = append(t.free, i)
	t.live--
}

// compactLocked restores the invariant ordered reads rely on: tombstones
// are dropped and, if installs unsorted the view, it is re-sorted by
// (priority desc, insertion order asc). Caller holds the write lock.
func (t *FlowTable) compactLocked() {
	if t.dead > 0 {
		kept := t.order[:0]
		for _, e := range t.order {
			if t.slotLocked(e.slot).gen == e.gen {
				kept = append(kept, e)
			}
		}
		t.order = kept
		t.dead = 0
	}
	if t.dirty {
		slices.SortFunc(t.order, func(a, b viewRef) int {
			sa, sb := t.slotLocked(a.slot), t.slotLocked(b.slot)
			if sa.rule.Priority != sb.rule.Priority {
				return cmp.Compare(sb.rule.Priority, sa.rule.Priority)
			}
			return cmp.Compare(sa.seq, sb.seq)
		})
		t.dirty = false
	}
	if n := len(t.order); n > 0 {
		t.tailPrio = t.slotLocked(t.order[n-1].slot).rule.Priority
	}
}

// Lookup returns a copy of the highest-priority rule matching the packet
// and true, or false on a miss. A copy, because the slot it came from is
// reused by the next install after the rule's removal; it shares the
// installed rule's Actions, which nothing writes after install.
func (t *FlowTable) Lookup(inPort PortID, p *Packet) (r Rule, ok bool) {
	t.mu.RLock()
	if t.dirty || t.dead > 0 {
		t.mu.RUnlock()
		t.mu.Lock()
		t.compactLocked()
		if i := t.lookupLocked(inPort, p); i >= 0 {
			r, ok = t.slotLocked(i).rule, true
		}
		t.mu.Unlock()
		return r, ok
	}
	if i := t.lookupLocked(inPort, p); i >= 0 {
		r, ok = t.slotLocked(i).rule, true
	}
	t.mu.RUnlock()
	return r, ok
}

// lookupLocked scans the ordered view for the first rule matching the
// packet and returns its slot, or -1; caller holds mu (either mode) with
// the table compacted.
func (t *FlowTable) lookupLocked(inPort PortID, p *Packet) int32 {
	for _, e := range t.order {
		if t.slotLocked(e.slot).rule.Match.Matches(inPort, p) {
			t.hits.Add(1)
			return e.slot
		}
	}
	t.misses.Add(1)
	return -1
}

// Len reports the number of installed rules.
func (t *FlowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Rules returns a copy of the installed rules in priority order.
func (t *FlowTable) Rules() []Rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.compactLocked()
	out := make([]Rule, len(t.order))
	for k, e := range t.order {
		out[k] = t.slotLocked(e.slot).rule
	}
	return out
}

// RemoveIf deletes all rules for which pred returns true, calling removed
// (if non-nil) on each in priority order before it goes, and returns the
// number deleted. Both callbacks run under the table's write lock: they
// must not call into the table or keep the pointer they are given.
func (t *FlowTable) RemoveIf(pred func(*Rule) bool, removed func(*Rule)) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.compactLocked()
	kept := t.order[:0]
	for _, e := range t.order {
		r := &t.slotLocked(e.slot).rule
		if !pred(r) {
			kept = append(kept, e)
			continue
		}
		if removed != nil {
			removed(r)
		}
		t.removeLocked(e.slot)
	}
	n := len(t.order) - len(kept)
	t.order = kept
	if len(kept) > 0 {
		t.tailPrio = t.slotLocked(kept[len(kept)-1].slot).rule.Priority
	}
	return n
}

// RemoveOwnerIf deletes owner's rules for which pred returns true (nil
// matches all of them), calling removed (if non-nil) on each in insertion
// order before it goes, and returns the number deleted. The callbacks are
// bound as RemoveIf's are. This is the O(k) fast path behind every
// owner-scoped removal: only the owner's own chain is visited, and the
// ordered view keeps tombstones until the next ordered read compacts.
func (t *FlowTable) RemoveOwnerIf(owner string, pred func(*Rule) bool, removed func(*Rule)) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.byOwner[owner]
	if !ok {
		return 0
	}
	n := 0
	for i := h; i >= 0; {
		s := t.slotLocked(i)
		r, next := &s.rule, s.next
		if pred == nil || pred(r) {
			if removed != nil {
				removed(r)
			}
			t.removeLocked(i)
			n++
		}
		i = next
	}
	t.dead += n
	// Amortization: once tombstones outnumber live rules the next ordered
	// read would pay for them anyway, so fold the compaction in here.
	if t.dead > t.live {
		t.compactLocked()
	}
	return n
}

// RemoveByOwner deletes all rules installed by owner.
func (t *FlowTable) RemoveByOwner(owner string) int {
	return t.RemoveOwnerIf(owner, nil, nil)
}

// Stats returns (hits, misses) lookup counters.
//
//softmow:allow testonly read-only probe: tests in seven packages read a table's lookup counters
func (t *FlowTable) Stats() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}
