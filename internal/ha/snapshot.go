package ha

import (
	"bytes"
	"time"

	"repro/internal/metrics"
	"repro/internal/nib"
)

// Incremental snapshots with event-log truncation. Without them the shared
// event log grows without bound and a standby joining cold must replay the
// whole history — promotion cost O(history). A SharedStore configured with
// SnapshotEvery periodically folds the replica state machine into a
// Checkpoint at the log's low-water mark and truncates everything below
// it; a rebuild then restores the checkpoint and replays only the delta —
// promotion cost O(delta).
//
// Snapshot writes are two-phase (BeginSnapshot captures, Commit installs)
// so a promotion racing a snapshot write never observes a torn checkpoint:
// until Commit, rebuilds use the previous committed checkpoint and a
// longer delta, both of which are fully consistent.

// StateMachine is the deterministic application state a SharedStore
// replicates from the event log: the master applies each successfully
// committed entry, checkpoints serialize the accumulated state, and a
// promoted standby rebuilds it from checkpoint + delta.
//
// Apply is invoked in commit order, which may differ from log (arrival)
// order across independent keys, and a delta replay may re-deliver entries
// that were committed above the low-water mark before the checkpoint was
// captured. Implementations must therefore be per-key last-writer-wins (or
// otherwise idempotent under at-least-once redelivery) with per-key apply
// order matching log order — the discipline every caller in this repo
// satisfies by serializing operations per UE/bearer.
type StateMachine interface {
	// Apply folds one successfully committed log entry into the state.
	Apply(e nib.LogEntry)
	// Snapshot serializes the state deterministically (equal states must
	// produce equal bytes — convergence checks compare serializations).
	Snapshot() []byte
	// Restore replaces the state from a Snapshot serialization.
	Restore(b []byte)
}

// Checkpoint is one committed incremental snapshot of the replica state.
type Checkpoint struct {
	// Seq numbers checkpoints from 1.
	Seq int
	// NextID is the log's low-water mark at capture: the serialized state
	// folds in every entry below it, so a rebuild replays from NextID.
	NextID uint64
	// State is the replica's serialized state at capture.
	State []byte
}

// ReplayStats describes one standby rebuild (Rebuild).
type ReplayStats struct {
	// FromSnapshot reports whether a committed checkpoint seeded the
	// rebuild (false = replay from genesis).
	FromSnapshot bool
	// SnapshotSeq and SnapshotBytes identify the seeding checkpoint.
	SnapshotSeq   int
	SnapshotBytes int
	// Replayed counts delta entries applied on top of the seed state;
	// Skipped counts finished-but-failed entries the replay ignored.
	Replayed int
	Skipped  int
}

// PromotionStats records the most recent promotion's measured cost.
type PromotionStats struct {
	// Latency is the wall-clock promotion duration: log scan, redo of
	// unfinished entries, and (when a replica factory is configured) the
	// standby's state rebuild.
	Latency time.Duration
	// Redone counts unfinished entries the promoted standby re-executed.
	Redone int
	// Rebuild is the state-rebuild cost (zero value when no replica
	// factory is configured).
	Rebuild ReplayStats
	// Converged reports whether the rebuilt replica byte-matched the live
	// replica state (vacuously true without a replica factory).
	Converged bool
}

// ha.* runtime metrics: promotion cost and snapshot lifecycle.
var (
	mPromotions       = metrics.NewCounter("ha.promotions")
	mPromotionLatency = metrics.NewDurationHist("ha.promotion_latency")
	mRedoneEntries    = metrics.NewCounter("ha.redone_entries")
	mReplayedEntries  = metrics.NewCounter("ha.replayed_entries")
	mSnapshots        = metrics.NewCounter("ha.snapshots")
	mSnapshotBytes    = metrics.NewCounter("ha.snapshot_bytes")
	mTruncated        = metrics.NewCounter("ha.truncated_entries")
)

// SetStateMachine installs the live replica the store applies committed
// entries to. Bootstrap only: call before any events flow.
func (s *SharedStore) SetStateMachine(sm StateMachine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sm = sm
}

// StateMachineSnapshot serializes the live replica (nil without one) — the
// convergence baseline invariant checks compare rebuilds against.
func (s *SharedStore) StateMachineSnapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sm == nil {
		return nil
	}
	return s.sm.Snapshot()
}

// Commit finishes a logged entry with its processing outcome: the log
// records done/failed, a successful entry is applied to the live replica,
// and — when SnapshotEvery is configured — a due checkpoint is captured
// and committed inline.
func (s *SharedStore) Commit(id uint64, opErr error) {
	// The outcome mark (which advances the log's low-water mark) and the
	// replica apply must be atomic with respect to snapshot capture: if
	// the mark landed outside the lock, a concurrent BeginSnapshot could
	// observe a low-water mark covering this entry while its state bytes
	// predate the apply — and the subsequent truncation would drop the
	// entry's effect from every future rebuild.
	s.mu.Lock()
	s.Log.MarkOutcome(id, opErr != nil)
	if opErr == nil && s.sm != nil {
		if e, ok := s.Log.Entry(id); ok {
			s.sm.Apply(e)
		}
	}
	s.sinceSnap++
	due := s.SnapshotEvery > 0 && s.sm != nil && !s.writing && s.sinceSnap >= s.SnapshotEvery
	s.mu.Unlock()
	if due {
		if w := s.BeginSnapshot(); w != nil {
			w.Commit()
		}
	}
}

// SnapshotWriter is an in-progress snapshot capture. The captured state is
// not visible to rebuilds until Commit; Abandon discards it.
type SnapshotWriter struct {
	store *SharedStore
	cp    Checkpoint
}

// BeginSnapshot captures the live replica state and the log's low-water
// mark into a pending checkpoint, returning nil when no replica is
// installed or another capture is in progress. The caller commits (or
// abandons) the writer; promotion between Begin and Commit uses the
// previous committed checkpoint — never the pending one.
func (s *SharedStore) BeginSnapshot() *SnapshotWriter {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sm == nil || s.writing {
		return nil
	}
	s.writing = true
	return &SnapshotWriter{
		store: s,
		cp: Checkpoint{
			Seq:    s.snapSeq + 1,
			NextID: s.Log.LowWaterMark(),
			State:  s.sm.Snapshot(),
		},
	}
}

// Commit installs the captured checkpoint as the committed one, truncates
// the log below its low-water mark, and resets the snapshot cadence.
func (w *SnapshotWriter) Commit() {
	s := w.store
	s.mu.Lock()
	cp := w.cp
	s.checkpoint = &cp
	s.snapSeq = cp.Seq
	s.sinceSnap = 0
	s.writing = false
	s.mu.Unlock()
	removed := s.Log.TruncateThrough(cp.NextID)
	mSnapshots.Inc()
	mSnapshotBytes.Add(int64(len(cp.State)))
	mTruncated.Add(int64(removed))
}

// Rebuild reconstructs application state into sm: restore the committed
// checkpoint if one exists and replay the delta above its low-water mark,
// else replay the retained log from genesis. Only finished, successful
// entries are applied — unfinished ones are the promotion redo's job.
func (s *SharedStore) Rebuild(sm StateMachine) ReplayStats {
	s.mu.Lock()
	cp := s.checkpoint
	s.mu.Unlock()
	var st ReplayStats
	from := uint64(0)
	if cp != nil {
		sm.Restore(cp.State)
		st.FromSnapshot = true
		st.SnapshotSeq = cp.Seq
		st.SnapshotBytes = len(cp.State)
		from = cp.NextID
	}
	for _, e := range s.Log.EntriesSince(from) {
		if !e.Done {
			continue
		}
		if e.Failed {
			st.Skipped++
			continue
		}
		sm.Apply(e)
		st.Replayed++
	}
	return st
}

// AdoptReplica installs a rebuilt replica as the live one, reporting
// whether it byte-converged with the state it replaces (true when there
// was no previous replica). The §6 promotion protocol calls this after
// Rebuild: the promoted standby's reconstructed view takes over, and a
// divergence means the snapshot/delta pipeline lost or duplicated effects.
func (s *SharedStore) AdoptReplica(sm StateMachine) (converged bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	converged = true
	if s.sm != nil {
		converged = bytes.Equal(s.sm.Snapshot(), sm.Snapshot())
	}
	s.sm = sm
	return converged
}
