package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/pathimpl"
)

// TestLockUESerializesSameUE: a held per-UE operation lock blocks a second
// operation on the same UE until released.
func TestLockUESerializesSameUE(t *testing.T) {
	s := newUEState(8)
	release := s.lockUE("u1")
	acquired := make(chan struct{})
	go func() {
		done := s.lockUE("u1")
		close(acquired)
		done.unlock()
	}()
	select {
	case <-acquired:
		t.Fatal("second op on the same UE acquired while the first was held")
	case <-time.After(20 * time.Millisecond):
	}
	release.unlock()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("second op never acquired after release")
	}
}

// TestLockUEParallelDistinctUEs: operations on different UEs do not block
// each other, even when they hash to the same shard.
func TestLockUEParallelDistinctUEs(t *testing.T) {
	s := newUEState(2) // 2 shards force plenty of same-shard UE pairs
	release := s.lockUE("u-held")
	defer release.unlock()
	for i := 0; i < 32; i++ {
		ue := fmt.Sprintf("u%d", i)
		acquired := make(chan struct{})
		go func() {
			done := s.lockUE(ue)
			close(acquired)
			done.unlock()
		}()
		select {
		case <-acquired:
		case <-time.After(time.Second):
			t.Fatalf("op on %s blocked behind unrelated held UE", ue)
		}
	}
}

// TestLockUEReclaimsOpLocks: released op locks leave the shard's ops map
// so the registry does not grow with the UE population.
func TestLockUEReclaimsOpLocks(t *testing.T) {
	s := newUEState(4)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			done := s.lockUE(fmt.Sprintf("u%d", i))
			done.unlock()
		}(i)
	}
	wg.Wait()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n := len(sh.ops)
		sh.mu.Unlock()
		if n != 0 {
			t.Fatalf("shard %d retains %d op locks after release", i, n)
		}
	}
}

// TestOneStripeKeepsPerUELocks: a 1-stripe store still serializes per UE
// only — two distinct UEs hold their op locks at the same time, and a
// second op on a held UE waits for it.
func TestOneStripeKeepsPerUELocks(t *testing.T) {
	s := newUEState(1)
	holdA := s.lockUE("a")
	holdB := make(chan ueHold)
	go func() { holdB <- s.lockUE("b") }()
	var b ueHold
	select {
	case b = <-holdB:
	case <-time.After(time.Second):
		t.Fatal("1-stripe store serialized two distinct UEs")
	}
	acquired := make(chan struct{})
	go func() {
		done := s.lockUE("a")
		close(acquired)
		done.unlock()
	}()
	select {
	case <-acquired:
		t.Fatal("second op on a held UE acquired while the first was held")
	case <-time.After(20 * time.Millisecond):
	}
	holdA.unlock()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("second op on the UE never acquired after release")
	}
	b.unlock()
}

// TestSetUEShardCount: rounding to powers of two and the non-empty-store
// panic.
func TestSetUEShardCount(t *testing.T) {
	c := NewController("c", 1, 0)
	if got := len(c.ue.shards); got != DefaultUEShards {
		t.Fatalf("default shards = %d, want %d", got, DefaultUEShards)
	}
	c.SetRadioIndex(map[dataplane.DeviceID]dataplane.DeviceID{"b1": "gA"}, nil)
	c.SetUEShardCount(5)
	if got := len(c.ue.shards); got != 8 {
		t.Fatalf("shards after SetUEShardCount(5) = %d, want 8", got)
	}
	// The radio index survives the resize.
	if g, ok := c.GroupOfBS("b1"); !ok || g != "gA" {
		t.Fatal("radio index lost across SetUEShardCount")
	}
	c.ue.put(&UERecord{UE: "u1"})
	defer func() {
		if recover() == nil {
			t.Fatal("SetUEShardCount with existing UE rows should panic")
		}
	}()
	c.SetUEShardCount(4)
}

// TestReconcileRadioIndexDropsStale is the satellite fix at the unit
// level: reconcile replaces an index wholesale, merge does not, and nil
// leaves an index untouched.
func TestReconcileRadioIndexDropsStale(t *testing.T) {
	c := NewController("c", 2, 0)
	c.SetRadioIndex(
		map[dataplane.DeviceID]dataplane.DeviceID{"b1": "gA"},
		map[dataplane.DeviceID]dataplane.PortRef{"gA": {Dev: "S1", Port: 1}},
	)
	// Merge keeps gA; reconcile with only gB must drop it.
	c.SetRadioIndex(nil, map[dataplane.DeviceID]dataplane.PortRef{"gB": {Dev: "S2", Port: 2}})
	if _, ok := c.AttachOfGroup("gA"); !ok {
		t.Fatal("merge dropped an unrelated entry")
	}
	c.ReconcileRadioIndex(nil, map[dataplane.DeviceID]dataplane.PortRef{"gB": {Dev: "S9", Port: 9}})
	if _, ok := c.AttachOfGroup("gA"); ok {
		t.Fatal("reconcile kept stale gA attachment")
	}
	ref, ok := c.AttachOfGroup("gB")
	if !ok || ref.Dev != "S9" {
		t.Fatalf("gB attach = %+v ok=%v", ref, ok)
	}
	// bsGroup was nil in the reconcile: untouched.
	if g, ok := c.GroupOfBS("b1"); !ok || g != "gA" {
		t.Fatal("nil bsGroup reconcile must leave the BS index alone")
	}
}

// TestRemoveRadioGroup: the explicit remove path drops the group's
// attachment and every BS mapped to it, leaving other groups alone.
func TestRemoveRadioGroup(t *testing.T) {
	c := NewController("c", 1, 0)
	c.SetRadioIndex(
		map[dataplane.DeviceID]dataplane.DeviceID{"b2": "gA", "b1": "gA", "b3": "gB"},
		map[dataplane.DeviceID]dataplane.PortRef{"gA": {Dev: "S1", Port: 1}, "gB": {Dev: "S3", Port: 1}},
	)
	removed := c.RemoveRadioGroup("gA")
	if len(removed) != 2 || removed[0] != "b1" || removed[1] != "b2" {
		t.Fatalf("removed = %v, want [b1 b2]", removed)
	}
	if _, ok := c.GroupOfBS("b1"); ok {
		t.Fatal("b1 still indexed after RemoveRadioGroup")
	}
	if _, ok := c.AttachOfGroup("gA"); ok {
		t.Fatal("gA attachment still indexed after RemoveRadioGroup")
	}
	if g, ok := c.GroupOfBS("b3"); !ok || g != "gB" {
		t.Fatal("unrelated group disturbed")
	}
}

// TestTransferReconcilesRadioIndexes is the satellite fix at the
// integration level: after a §5.3.2 border-group transfer, the source
// leaf's radio index must no longer resolve the moved group or its BSes,
// and the root's re-derived index must point the group's attachment at the
// target's G-switch, with no stale source entry surviving the reconcile.
func TestTransferReconcilesRadioIndexes(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	srcGSwitch := f.l2.GSwitchID()
	dstGSwitch := f.l1.GSwitchID()
	if ref, ok := f.root.AttachOfGroup("gB"); !ok || ref.Dev != srcGSwitch {
		t.Fatalf("precondition: root attach for gB = %+v ok=%v", ref, ok)
	}
	if err := f.h.TransferBorderGroup("gB", f.l2, f.l1); err != nil {
		t.Fatal(err)
	}
	// Source leaf: both halves of the index are scrubbed.
	if _, ok := f.l2.GroupOfBS("b3"); ok {
		t.Fatal("source leaf still maps b3 after the transfer")
	}
	if _, ok := f.l2.AttachOfGroup("gB"); ok {
		t.Fatal("source leaf still holds gB's attachment after the transfer")
	}
	// Target leaf adopted both halves.
	if g, ok := f.l1.GroupOfBS("b3"); !ok || g != "gB" {
		t.Fatal("target leaf did not adopt b3")
	}
	if _, ok := f.l1.AttachOfGroup("gB"); !ok {
		t.Fatal("target leaf did not adopt gB's attachment")
	}
	// The root re-derives its index from the children; the gB attachment
	// must move to the target's G-switch rather than merge alongside the
	// stale source-side entry.
	RefreshDerived(f.root)
	ref, ok := f.root.AttachOfGroup("gB")
	if !ok {
		t.Fatal("root lost gB after RefreshDerived")
	}
	if ref.Dev != dstGSwitch {
		t.Fatalf("root attach for gB = %+v, want on %s (stale entry kept?)", ref, dstGSwitch)
	}
}

// TestBearerReplacementReleasesOldPath: a repeat bearer request that moves
// the bearer (here: another prefix from a BS of the same group, resolved by
// the root instead of the leaf) replaces the path make-before-break and
// forgets the old one, so overlapping attaches cannot leak installed
// paths. A repeat request that moves nothing keeps the path — see
// TestSameGroupHandoverKeepsPath.
func TestBearerReplacementReleasesOldPath(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	first, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u1", BS: "b1", Prefix: "pfxNear"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u1", BS: "b2", Prefix: "pfxFar"})
	if err != nil {
		t.Fatal(err)
	}
	if old, ok := first.HandledBy.Path(first.PathID); ok {
		t.Fatalf("replaced path still in its owner's table: %+v", old)
	}
	if got := f.l1.PathTableSize(); got != 0 {
		t.Fatalf("leaf holds %d path records after its path was replaced", got)
	}
	if second.HandledBy.OwnerID() != "root" {
		t.Fatalf("replacement owned by %s, want root", second.HandledBy.OwnerID())
	}
	if cur, ok := second.HandledBy.Path(second.PathID); !ok || !cur.Active {
		t.Fatalf("replacement path not active: %+v ok=%v", cur, ok)
	}
	rec, _ := f.l1.UE("u1")
	if rec.PathID != second.PathID || rec.BS != "b2" || rec.Prefix != "pfxFar" {
		t.Fatalf("UE row not rewritten: %+v", rec)
	}
}

// TestConcurrentBearerOpsDistinctUEs drives parallel attach /
// intra-handover / teardown across many UEs (meaningful under -race) and
// checks the table and path books balance afterwards.
func TestConcurrentBearerOpsDistinctUEs(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ue := fmt.Sprintf("u%d", i)
			if _, err := f.l1.HandleBearerRequest(BearerRequest{UE: ue, BS: "b1", Prefix: "pfxNear"}); err != nil {
				errs <- err
				return
			}
			if err := f.l1.Handover(ue, "gA", "b2"); err != nil {
				errs <- err
				return
			}
			if i%2 == 0 {
				if err := f.l1.DeactivateBearer(ue); err != nil {
					errs <- err
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := f.l1.UECount(); got != n {
		t.Fatalf("UE count = %d, want %d", got, n)
	}
	active := 0
	for _, rec := range f.l1.UERecords() {
		if rec.Active {
			active++
			if pr, ok := rec.HandledBy.Path(rec.PathID); !ok || !pr.Active {
				t.Fatalf("active UE %s has dead path %d", rec.UE, rec.PathID)
			}
		}
	}
	if active != n/2 {
		t.Fatalf("active UEs = %d, want %d", active, n/2)
	}
}

// TestConcurrentSameUEOps hammers one UE from many goroutines; per-UE
// serialization must keep the row and the path table coherent whatever
// order wins.
func TestConcurrentSameUEOps(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	if _, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u", BS: "b1", Prefix: "pfxNear"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				_, _ = f.l1.HandleBearerRequest(BearerRequest{UE: "u", BS: "b1", Prefix: "pfxNear"}) //softmow:allow errdiscard stress: failures are legal interleavings
			case 1:
				_ = f.l1.Handover("u", "gA", "b2") //softmow:allow errdiscard stress: failures are legal interleavings
			case 2:
				_ = f.l1.DeactivateBearer("u") //softmow:allow errdiscard stress: failures are legal interleavings
			}
		}(i)
	}
	wg.Wait()
	rec, ok := f.l1.UE("u")
	if !ok {
		t.Fatal("UE row vanished")
	}
	if rec.Active {
		if pr, ok := rec.HandledBy.Path(rec.PathID); !ok || !pr.Active {
			t.Fatalf("active row points at dead path: %+v", rec)
		}
	}
	// Settle to a known state and verify exactly one active path remains
	// across the hierarchy for this UE's owner space.
	if err := f.l1.DeactivateBearer("u"); err != nil {
		t.Fatal(err)
	}
	for _, c := range f.h.All {
		if n := c.NumPaths(); n != 0 {
			t.Fatalf("%s still has %d active paths after drain", c.ID, n)
		}
	}
}
