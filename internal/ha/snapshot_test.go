package ha

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/nib"
	"repro/internal/simnet"
)

// journalSM is a minimal replica for snapshot tests: an append-only
// journal of committed entries, serialized line-per-entry. Entries are
// keyed by log ID, so identical event sequences produce identical bytes.
type journalSM struct {
	lines []string
}

func (j *journalSM) Apply(e nib.LogEntry) {
	j.lines = append(j.lines, fmt.Sprintf("%d:%v", e.ID, e.Payload))
}
func (j *journalSM) Snapshot() []byte { return []byte(strings.Join(j.lines, "\n")) }
func (j *journalSM) Restore(b []byte) {
	j.lines = nil
	if len(b) > 0 {
		j.lines = strings.Split(string(b), "\n")
	}
}

// snapPair builds a pair whose store checkpoints every `every` commits.
func snapPair(every int, redo func(nib.LogEntry) error) (*simnet.Sim, *Pair) {
	sim := simnet.New()
	store := NewSharedStore()
	store.SnapshotEvery = every
	store.SetStateMachine(&journalSM{})
	p := NewPair(sim, store, "C1-master", "C1-standby", redo)
	p.NewReplica = func() StateMachine { return &journalSM{} }
	return sim, p
}

func driveEvents(t *testing.T, p *Pair, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := p.HandleEvent("op", fmt.Sprintf("ev-%d", i), func() error { return nil }); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
}

func TestSnapshotCadenceTruncatesLog(t *testing.T) {
	_, p := snapPair(4, nil)
	driveEvents(t, p, 10)
	cp := p.Store.Checkpoint()
	if cp == nil {
		t.Fatal("no checkpoint after 10 commits at cadence 4")
	}
	if cp.NextID == 0 || len(cp.State) == 0 {
		t.Fatalf("empty checkpoint: %+v", cp)
	}
	if n := p.Store.Log.Len(); n >= 10 {
		t.Fatalf("log holds %d entries, truncation never fired", n)
	}
	// The rebuilt replica must equal the live one byte-for-byte.
	fresh := &journalSM{}
	st := p.Store.Rebuild(fresh)
	if !st.FromSnapshot {
		t.Fatal("rebuild ignored the committed checkpoint")
	}
	if got, want := fresh.Snapshot(), p.Store.StateMachineSnapshot(); !bytes.Equal(got, want) {
		t.Fatalf("rebuild diverged:\n%s\nvs live\n%s", got, want)
	}
}

// TestReplayEquivalence drives the identical event sequence through a
// snapshotting store and a full-history store: the rebuilt replicas must
// be byte-identical, with the snapshot rebuild replaying only the delta.
func TestReplayEquivalence(t *testing.T) {
	_, snap := snapPair(8, nil)
	_, full := snapPair(0, nil)
	driveEvents(t, snap, 50)
	driveEvents(t, full, 50)

	sRep, fRep := &journalSM{}, &journalSM{}
	sSt := snap.Store.Rebuild(sRep)
	fSt := full.Store.Rebuild(fRep)
	if !bytes.Equal(sRep.Snapshot(), fRep.Snapshot()) {
		t.Fatalf("snapshot rebuild != genesis rebuild:\n%s\nvs\n%s", sRep.Snapshot(), fRep.Snapshot())
	}
	if !sSt.FromSnapshot || fSt.FromSnapshot {
		t.Fatalf("fromSnapshot: snap=%t full=%t", sSt.FromSnapshot, fSt.FromSnapshot)
	}
	if fSt.Replayed != 50 {
		t.Fatalf("genesis rebuild replayed %d entries, want 50", fSt.Replayed)
	}
	if sSt.Replayed >= fSt.Replayed {
		t.Fatalf("snapshot rebuild replayed %d entries, not cheaper than %d from genesis",
			sSt.Replayed, fSt.Replayed)
	}
}

// TestPromotionMidSnapshotWrite crashes the master while a snapshot
// capture is open: the promotion must use the previous committed
// checkpoint — never the torn pending one — and still converge.
func TestPromotionMidSnapshotWrite(t *testing.T) {
	_, p := snapPair(4, nil)
	driveEvents(t, p, 8) // at least one committed checkpoint
	committed := p.Store.Checkpoint()
	if committed == nil {
		t.Fatal("no committed checkpoint to fall back on")
	}

	w := p.Store.BeginSnapshot()
	if w == nil {
		t.Fatal("could not open a snapshot capture")
	}
	driveEvents(t, p, 5)         // commits land while the capture is open
	p.LogOnly("op", "in-flight") // and one entry dies unprocessed

	if !p.PromoteNow() {
		t.Fatal("promotion failed")
	}
	ps := p.LastPromotion()
	if !ps.Converged {
		t.Fatal("promoted replica diverged from the master's")
	}
	if !ps.Rebuild.FromSnapshot || ps.Rebuild.SnapshotSeq != committed.Seq {
		t.Fatalf("promotion used checkpoint seq %d (fromSnapshot=%t), want committed seq %d",
			ps.Rebuild.SnapshotSeq, ps.Rebuild.FromSnapshot, committed.Seq)
	}
	if ps.Redone != 1 {
		t.Fatalf("redone %d entries, want the 1 in-flight", ps.Redone)
	}
	if p.MasterCount() != 1 {
		t.Fatalf("master count %d after promotion", p.MasterCount())
	}

	// The abandoned writer must not wedge future captures.
	w.Abandon()
	if w2 := p.Store.BeginSnapshot(); w2 == nil {
		t.Fatal("snapshot capture wedged after abandoning the torn writer")
	} else {
		w2.Commit()
	}
}

// TestPendingSnapshotNeverVisible pins the two-phase rule: a begun but
// uncommitted capture is invisible to Checkpoint() and rebuilds.
func TestPendingSnapshotNeverVisible(t *testing.T) {
	_, p := snapPair(0, nil) // no auto-cadence; manual captures only
	driveEvents(t, p, 3)
	w := p.Store.BeginSnapshot()
	if w == nil {
		t.Fatal("could not open capture")
	}
	if cp := p.Store.Checkpoint(); cp != nil {
		t.Fatalf("pending capture leaked as committed checkpoint %+v", cp)
	}
	fresh := &journalSM{}
	if st := p.Store.Rebuild(fresh); st.FromSnapshot {
		t.Fatal("rebuild consumed a pending capture")
	}
	w.Commit()
	if cp := p.Store.Checkpoint(); cp == nil {
		t.Fatal("committed capture not visible")
	}
}

// Abandon discards the pending capture (a crashed master mid-write).
func (w *SnapshotWriter) Abandon() {
	w.store.mu.Lock()
	w.store.writing = false
	w.store.mu.Unlock()
}

// Checkpoint returns the committed checkpoint (nil before the first
// Commit). The pending state of an in-progress writer is never returned.
func (s *SharedStore) Checkpoint() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.checkpoint == nil {
		return nil
	}
	cp := *s.checkpoint
	return &cp
}
