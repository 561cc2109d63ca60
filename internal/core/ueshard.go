package core

import (
	"sort"
	"sync"

	"repro/internal/dataplane"
)

// The sharded UE store. The §5.1 UE table used to be three maps behind one
// mutex, which made every attach, bearer setup, and handover on a
// controller serialize; under a region's full event rate that single lock
// is the first thing to saturate. The store is now split three ways:
//
//   - The UE table is hash-striped across ueShard buckets (FNV-1a on the
//     UE ID), so table reads and writes for different UEs contend only
//     within a shard.
//   - Mobility operations are serialized per UE through refcounted
//     operation locks (lockUE): two concurrent operations on the same UE
//     never interleave — the second waits for the first's route, install,
//     and record write to complete — while operations on different UEs run
//     in parallel even when they hash to the same shard.
//   - The radio index (BS→group, group→attach) moves behind its own
//     RWMutex (radioIndex): it is read on every bearer setup but written
//     only by management-plane (re)configuration, so hot-path lookups
//     never contend with bearer record writers.
//
// A shard count of 1 selects the coarse compatibility mode: lockUE
// degenerates to one store-wide operation mutex, reproducing the
// single-mutex design where a controller processes mobility events one at
// a time. cmd/loadgen uses it as the scaling baseline.

// DefaultUEShards is the UE-table stripe count controllers start with.
// Power of two; see Controller.SetUEShardCount for tuning.
const DefaultUEShards = 16

// SetUEShardCount resizes the UE store's lock striping. n is rounded up
// to a power of two; n = 1 selects the coarse single-mutex compatibility
// mode (the scaling baseline cmd/loadgen measures against). Bootstrap
// only: it must run before any UE rows exist — nothing rehashes — and is
// not safe concurrently with mobility operations. The radio index (which
// the management plane may already have configured) is preserved.
func (c *Controller) SetUEShardCount(n int) {
	if c.ue.count() != 0 {
		panic("core: SetUEShardCount called with existing UE state")
	}
	fresh := newUEState(n)
	fresh.radio = c.ue.radio
	c.ue = fresh
}

// UEShardCount reports the store's stripe count (1 in coarse mode).
func (c *Controller) UEShardCount() int {
	return len(c.ue.shards)
}

// ueState is the sharded §5.1 UE table plus the radio index.
type ueState struct {
	// shards is immutable after construction (len is a power of two);
	// SetUEShardCount swaps in a whole new ueState during bootstrap.
	shards []ueShard
	// coarse marks the single-shard compatibility mode in which every
	// mobility operation serializes on op.
	coarse bool
	// op is the store-wide operation lock used only in coarse mode.
	op ueOpLock

	radio *radioIndex
}

// ueShard is one stripe of the UE table.
type ueShard struct {
	mu sync.Mutex
	// table maps UE IDs to their table rows, guarded by mu.
	table map[string]*UERecord
	// ops holds the per-UE operation locks of UEs with a mobility
	// operation in flight, guarded by mu.
	ops map[string]*ueOpLock
	// free holds released operation locks for reuse (at most the shard's
	// peak concurrency of them), guarded by mu.
	free []*ueOpLock
}

// ueOpLock serializes mobility operations on one UE.
type ueOpLock struct {
	// mu is held for the full duration of one mobility operation.
	mu sync.Mutex
	// refs counts holders and waiters; it is read and written only while
	// holding the owning shard's mutex, and the lock moves from the
	// shard's ops map to its free list when it reaches zero.
	refs int
}

// ueHold is one held per-UE operation lock: a plain value, so taking and
// deferring it allocates nothing.
type ueHold struct {
	sh *ueShard // nil in coarse mode
	l  *ueOpLock
	ue string
}

// radioIndex is the management-plane radio configuration the mobility
// application reads on every bearer request.
type radioIndex struct {
	mu sync.RWMutex
	// bsGroup maps base stations to their BS group, guarded by mu.
	bsGroup map[dataplane.DeviceID]dataplane.DeviceID
	// groupAttach maps BS groups to their radio attachment port, guarded by mu.
	groupAttach map[dataplane.DeviceID]dataplane.PortRef
}

// newUEState builds a store with shardCount stripes (rounded up to a power
// of two; 1 selects the coarse single-mutex mode).
func newUEState(shardCount int) *ueState {
	n := 1
	for n < shardCount {
		n <<= 1
	}
	s := &ueState{
		shards: make([]ueShard, n),
		coarse: n == 1,
		radio: &radioIndex{
			bsGroup:     make(map[dataplane.DeviceID]dataplane.DeviceID),
			groupAttach: make(map[dataplane.DeviceID]dataplane.PortRef),
		},
	}
	for i := range s.shards {
		s.shards[i] = ueShard{
			table: make(map[string]*UERecord),
			ops:   make(map[string]*ueOpLock),
		}
	}
	return s
}

// shardOf picks the stripe owning a UE (FNV-1a, masked — len(shards) is a
// power of two).
func (s *ueState) shardOf(ue string) *ueShard {
	var h uint32 = 2166136261
	for i := 0; i < len(ue); i++ {
		h ^= uint32(ue[i])
		h *= 16777619
	}
	return &s.shards[h&uint32(len(s.shards)-1)]
}

// lockUE serializes mobility operations per UE and returns the hold the
// caller must unlock when its operation completes. While held, no other
// operation on the same UE can start; operations on other UEs are
// unaffected (coarse mode instead serializes everything on one mutex).
func (s *ueState) lockUE(ue string) ueHold {
	if s.coarse {
		s.op.mu.Lock()
		return ueHold{l: &s.op}
	}
	sh := s.shardOf(ue)
	sh.mu.Lock()
	l := sh.ops[ue]
	if l == nil {
		if n := len(sh.free); n > 0 {
			l, sh.free = sh.free[n-1], sh.free[:n-1]
		} else {
			l = &ueOpLock{}
		}
		sh.ops[ue] = l
	}
	l.refs++
	sh.mu.Unlock()
	l.mu.Lock()
	return ueHold{sh: sh, l: l, ue: ue}
}

// unlock ends the operation lockUE started.
func (h ueHold) unlock() {
	h.l.mu.Unlock()
	if h.sh == nil {
		return
	}
	h.sh.mu.Lock()
	h.l.refs--
	if h.l.refs == 0 {
		// No holder and no waiter is left, so nobody else can reach l.
		delete(h.sh.ops, h.ue)
		h.sh.free = append(h.sh.free, h.l)
	}
	h.sh.mu.Unlock()
}

// get returns a copy of a UE's table row.
func (s *ueState) get(ue string) (UERecord, bool) {
	sh := s.shardOf(ue)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.table[ue]
	if !ok {
		return UERecord{}, false
	}
	return *r, true
}

// put inserts or replaces a UE's table row.
func (s *ueState) put(rec *UERecord) {
	sh := s.shardOf(rec.UE)
	sh.mu.Lock()
	sh.table[rec.UE] = rec
	sh.mu.Unlock()
}

// update applies f to a UE's table row under the shard lock, reporting
// whether the row existed.
func (s *ueState) update(ue string, f func(*UERecord)) bool {
	sh := s.shardOf(ue)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.table[ue]
	if !ok {
		return false
	}
	f(r)
	return true
}

// remove deletes a UE's table row, reporting whether it existed.
func (s *ueState) remove(ue string) bool {
	sh := s.shardOf(ue)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.table[ue]
	delete(sh.table, ue)
	return ok
}

// count reports the number of UE table rows across all shards.
func (s *ueState) count() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.table)
		sh.mu.Unlock()
	}
	return n
}

// snapshot copies every UE table row, sorted by UE ID (deterministic for
// digests, invariant checks, and tests).
func (s *ueState) snapshot() []UERecord {
	var out []UERecord
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, r := range sh.table {
			out = append(out, *r)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UE < out[j].UE })
	return out
}

// takeGroup removes and returns every row camped on a BS group, sorted by
// UE ID (§5.3.2 state transfer). The reconfiguration protocol drains the
// group before calling, so no per-UE operation is in flight on the moved
// rows.
func (s *ueState) takeGroup(groupID dataplane.DeviceID) []*UERecord {
	var moved []*UERecord
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for ue, rec := range sh.table {
			if rec.Group == groupID {
				moved = append(moved, rec)
				delete(sh.table, ue)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(moved, func(i, j int) bool { return moved[i].UE < moved[j].UE })
	return moved
}

// putAll inserts rows (the receiving half of a §5.3.2 transfer).
func (s *ueState) putAll(recs []*UERecord) {
	for _, rec := range recs {
		s.put(rec)
	}
}

// merge adds entries from both maps, leaving existing entries for other
// keys in place (bootstrap configuration and incremental group adoption).
func (r *radioIndex) merge(bsGroup map[dataplane.DeviceID]dataplane.DeviceID, groupAttach map[dataplane.DeviceID]dataplane.PortRef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range bsGroup {
		r.bsGroup[k] = v
	}
	for k, v := range groupAttach {
		r.groupAttach[k] = v
	}
}

// reconcile replaces each non-nil index wholesale, dropping entries absent
// from the replacement (nil leaves that index untouched).
func (r *radioIndex) reconcile(bsGroup map[dataplane.DeviceID]dataplane.DeviceID, groupAttach map[dataplane.DeviceID]dataplane.PortRef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if bsGroup != nil {
		r.bsGroup = make(map[dataplane.DeviceID]dataplane.DeviceID, len(bsGroup))
		for k, v := range bsGroup {
			r.bsGroup[k] = v
		}
	}
	if groupAttach != nil {
		r.groupAttach = make(map[dataplane.DeviceID]dataplane.PortRef, len(groupAttach))
		for k, v := range groupAttach {
			r.groupAttach[k] = v
		}
	}
}

// removeGroup deletes a BS group's attachment and every BS mapped to it,
// returning the removed BSes sorted (the explicit remove path for region
// reconfiguration).
func (r *radioIndex) removeGroup(group dataplane.DeviceID) []dataplane.DeviceID {
	r.mu.Lock()
	defer r.mu.Unlock()
	var removed []dataplane.DeviceID
	for bs, g := range r.bsGroup {
		if g == group {
			removed = append(removed, bs)
		}
	}
	for _, bs := range removed {
		delete(r.bsGroup, bs)
	}
	delete(r.groupAttach, group)
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	return removed
}

// groupOf resolves a base station's BS group.
func (r *radioIndex) groupOf(bs dataplane.DeviceID) (dataplane.DeviceID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.bsGroup[bs]
	return g, ok
}

// attachOf resolves a BS group's radio attachment.
func (r *radioIndex) attachOf(g dataplane.DeviceID) (dataplane.PortRef, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ref, ok := r.groupAttach[g]
	return ref, ok
}
