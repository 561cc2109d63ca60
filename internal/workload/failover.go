package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ha"
	"repro/internal/nib"
	"repro/internal/simnet"
)

// This file is the failover-under-fire driver: it routes every workload op
// through an HA pair's write-ahead log, kills the master mid-run on a
// FailoverSchedule, and measures the promoted standby's recovery —
// time-to-recovery, redone and replayed entries, duplicates detected, and
// whether the replicated UE table converged with the real controllers.
//
// Exactly-once execution is preserved across the crash: acked ops whose
// commits were lost are re-delivered by the §6 redo and caught by the
// duplicate detector; abandoned in-flight ops block their lanes until the
// redo executes them; later ops block until recovery. Every op therefore
// executes exactly once in per-UE schedule order, so the run's final
// StateDigest must equal a plain run's at the same seed — the property
// cmd/loadgen -chaos-failover asserts.

// FailoverSchedule plans one master crash injected into a live workload
// run (the failover-under-fire experiment). Op indices
// count arrivals at the HA wrapper, 1-based:
//
//   - ops before KillAt-LostCommits follow the full log→process→commit
//     discipline;
//   - the LostCommits ops right before KillAt execute and are acknowledged,
//     but the master dies before committing them — the §6 window the
//     promoted standby re-delivers and the duplicate detector must catch;
//   - the Abandon ops starting at KillAt are logged but never processed by
//     the dying master: their callers block until the promoted standby
//     redoes them from the log;
//   - everything later blocks until recovery completes, then flows through
//     the new master.
//
// SnapshotEvery is the store's checkpoint cadence for the run; 0 means
// promotion rebuilds by full-history replay (the O(history) baseline the
// incremental-snapshot pass is measured against).
type FailoverSchedule struct {
	KillAt        int
	LostCommits   int
	Abandon       int
	SnapshotEvery int
}

// Normalized validates the schedule against a run of `events` ops driven
// by `workers` concurrent lanes, clamping the windows to values that
// cannot deadlock the driver: the Abandon window must fit within the
// lanes' blocking capacity (each abandoned op parks its lane until the
// promotion redo releases it), and both windows must fit inside the run.
func (s FailoverSchedule) Normalized(events, workers int) (FailoverSchedule, error) {
	if s.KillAt <= 0 {
		return s, fmt.Errorf("workload: failover KillAt must be positive, got %d", s.KillAt)
	}
	if s.LostCommits < 0 || s.Abandon < 1 {
		return s, fmt.Errorf("workload: failover windows out of range (lost=%d abandon=%d)", s.LostCommits, s.Abandon)
	}
	if s.Abandon > workers {
		s.Abandon = workers
	}
	if s.LostCommits >= s.KillAt {
		s.LostCommits = s.KillAt - 1
	}
	if s.KillAt+s.Abandon > events {
		return s, fmt.Errorf("workload: failover window [%d, %d) exceeds the %d-op run",
			s.KillAt, s.KillAt+s.Abandon, events)
	}
	return s, nil
}

// ueImage is the post-op UE row image logged as the physiological redo
// payload: Seq orders images per UE (last writer wins under at-least-once
// re-delivery), Present distinguishes a live row from a detach tombstone.
type ueImage struct {
	Seq     int
	Present bool
	Row     string
}

// opRecord is the write-ahead-log payload for one workload op.
type opRecord struct {
	op Op
	// run executes the op and captures the post-op row image; the outcome
	// lands in err/img/executed.
	run func()
	// id is the log entry ID (set for entries logged without commit).
	id uint64
	// claimed is the execution right: exactly one of the original caller,
	// the promotion redo, or the late-recovery path runs the op.
	claimed atomic.Bool
	// ran closes once run has finished and the image is recorded; the
	// redo waits on it before committing an entry someone else claimed,
	// so the commit's Apply always sees the final image.
	ran chan struct{}
	// done releases a blocked caller once the redo has processed the
	// entry (nil for ops that never block on the redo).
	done chan struct{}

	mu sync.Mutex
	// img is the post-op UE row image. guarded by mu.
	img ueImage
	// err is the op's real outcome, reported to the engine. guarded by mu.
	err error
	// executed marks the op's effects applied. guarded by mu.
	executed bool
}

// opErr returns the op's recorded outcome.
func (rec *opRecord) opErr() error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.err
}

// ueTableReplica is the replicated UE table: the latest row image per UE,
// ordered by per-UE Seq so re-delivered entries cannot roll a row back.
// Detach tombstones are retained (with their Seq) so a re-delivered
// pre-detach image cannot resurrect a removed UE after a snapshot restore.
type ueTableReplica struct {
	// rows maps UE name → latest image (tombstones included).
	rows map[string]ueImage
}

func newUETableReplica() *ueTableReplica {
	return &ueTableReplica{rows: make(map[string]ueImage)}
}

// Apply folds one committed entry, last-writer-wins by per-UE Seq.
func (r *ueTableReplica) Apply(e nib.LogEntry) {
	rec, ok := e.Payload.(*opRecord)
	if !ok {
		return
	}
	rec.mu.Lock()
	img, ex := rec.img, rec.executed
	rec.mu.Unlock()
	if !ex {
		return
	}
	ue := UEName(rec.op.UE)
	if cur, ok := r.rows[ue]; ok && cur.Seq >= img.Seq {
		return
	}
	r.rows[ue] = img
}

// Snapshot serializes every row (tombstones included) sorted by UE.
func (r *ueTableReplica) Snapshot() []byte {
	ues := make([]string, 0, len(r.rows))
	for ue := range r.rows {
		ues = append(ues, ue)
	}
	sort.Strings(ues)
	var b strings.Builder
	for _, ue := range ues {
		img := r.rows[ue]
		fmt.Fprintf(&b, "%s %d %t %s\n", ue, img.Seq, img.Present, img.Row)
	}
	return []byte(b.String())
}

// Restore replaces the rows from a Snapshot serialization.
func (r *ueTableReplica) Restore(b []byte) {
	r.rows = make(map[string]ueImage)
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.SplitN(line, " ", 4)
		if len(f) < 3 {
			continue
		}
		var img ueImage
		if _, err := fmt.Sscanf(f[1], "%d", &img.Seq); err != nil {
			continue
		}
		img.Present = f[2] == "true"
		if len(f) == 4 {
			img.Row = f[3]
		}
		r.rows[f[0]] = img
	}
}

// presentRows returns the live (non-tombstone) rows.
func (r *ueTableReplica) presentRows() map[string]string {
	out := make(map[string]string)
	for ue, img := range r.rows {
		if img.Present {
			out[ue] = img.Row
		}
	}
	return out
}

// failoverDriver wraps every engine op in the HA write-ahead discipline
// and injects the scheduled crash.
type failoverDriver struct {
	spec  FailoverSchedule
	cl    *Cluster
	pair  *ha.Pair
	store *ha.SharedStore
	// genesis is the pre-run UE table (the population BuildCluster
	// attaches before any op is logged), serialized in replica form.
	// Every fresh replica starts from it: those rows exist in the
	// controllers but in no log entry, so a rebuild from an empty
	// state machine could never recover them.
	genesis []byte

	n          atomic.Int64 // op arrival counter (1-based)
	inflight   atomic.Int64 // ops inside the log→process→commit discipline
	abandoned  atomic.Int64
	lost       atomic.Int64
	dups       atomic.Int64
	blocked    atomic.Int64
	reattached atomic.Int64

	crashOnce   sync.Once
	recoverOnce sync.Once
	logOnce     sync.Once
	crashed     chan struct{}
	recovered   chan struct{}

	mu sync.Mutex
	// crashWall stamps the master's death. guarded by mu.
	crashWall time.Time
	// recoveryWall is crash → recovery-complete. guarded by mu.
	recoveryWall time.Duration
	// maxBlockedWait is the longest blackout hold. guarded by mu.
	maxBlockedWait time.Duration
	// logLenAtPromote is the retained log size entering promotion.
	// guarded by mu.
	logLenAtPromote int
}

// wrap is the engine's ExecWrapper: classify the op by arrival index
// against the schedule and run the matching §6 discipline.
func (d *failoverDriver) wrap(op Op, next func() error) error {
	rec := &opRecord{op: op, ran: make(chan struct{})}
	leaf := d.cl.Regions[op.Region].Leaf
	rec.run = func() {
		err := next()
		img := ueImage{Seq: op.Seq}
		if r, ok := leaf.UE(UEName(op.UE)); ok {
			img.Present = true
			img.Row = fmt.Sprintf("%s %s %s %s %d %t", leaf.ID, r.BS, r.Group, r.Prefix, r.QoS, r.Active)
		}
		rec.mu.Lock()
		rec.img, rec.err, rec.executed = img, err, true
		rec.mu.Unlock()
		close(rec.ran)
	}
	n := int(d.n.Add(1))
	K, D, W := d.spec.KillAt, d.spec.LostCommits, d.spec.Abandon
	switch {
	case n < K-D:
		return d.handleLive(rec)
	case n < K:
		// Acked-but-commit-lost window: the op executes and its caller is
		// acknowledged, but the master dies before committing, so the
		// entry stays unfinished and the promotion redo re-delivers it —
		// the duplicate the detector must catch. The lost counter ticks
		// after the append: the promotion quiesce waits for all of these
		// entries to reach the log before scanning it, because an acked
		// op's entry IS durable in the §6 model — only its commit is lost.
		rec.done = make(chan struct{})
		rec.id = d.pair.LogOnly(op.Kind.String(), rec)
		d.lost.Add(1)
		if rec.claimed.CompareAndSwap(false, true) {
			rec.run()
		} else {
			// The promotion redo raced us to the entry and executed it.
			<-rec.done
		}
		return rec.opErr()
	case n < K+W:
		select {
		case <-d.recovered:
			// Recovery already completed (watchdog promotion fired before
			// the abandon window filled): serve on the new master.
			return d.handleLive(rec)
		default:
		}
		// Abandoned in-flight: logged by the dying master, never
		// processed. The caller blocks until the promotion redo executes
		// the entry from the log.
		rec.done = make(chan struct{})
		rec.id = d.pair.LogOnly(op.Kind.String(), rec)
		d.crashOnce.Do(d.markCrash)
		if int(d.abandoned.Add(1)) == W {
			d.promoteAndRecover()
			d.finishStraggler(rec)
		} else {
			select {
			case <-rec.done:
			case <-d.recovered:
				d.finishStraggler(rec)
			}
		}
		return rec.opErr()
	default:
		// Blackout: the master is (about to be) dead and the abandon
		// window is spoken for — hold the op until recovery completes,
		// then serve it on the promoted master.
		t0 := wallClock()
		<-d.recovered
		d.blocked.Add(1)
		d.noteBlockedWait(wallClock().Sub(t0))
		return d.handleLive(rec)
	}
}

// handleLive runs the full log→process→commit discipline. The commit
// outcome is always "done": the logged row image reflects whatever
// actually happened, and the op's real error is reported to the engine
// separately. A caller that catches the master mid-death retries once the
// promotion completes — nothing was logged or executed for it yet.
func (d *failoverDriver) handleLive(rec *opRecord) error {
	for {
		// The inflight count lets the promotion quiesce: it must not scan
		// the log while an op is between Append and Commit, or the op's
		// apply would land on the replica the promotion throws away.
		d.inflight.Add(1)
		herr := d.pair.HandleEvent(rec.op.Kind.String(), rec, func() error {
			rec.claimed.Store(true)
			rec.run()
			return nil
		})
		d.inflight.Add(-1)
		if herr == ha.ErrNoMaster {
			<-d.recovered
			continue
		}
		if herr != nil {
			return herr
		}
		return rec.opErr()
	}
}

// finishStraggler executes and commits an entry the promotion redo never
// saw (logged concurrently with the Unfinished scan). No-op if the redo
// did process it.
func (d *failoverDriver) finishStraggler(rec *opRecord) {
	if rec.claimed.CompareAndSwap(false, true) {
		rec.run()
		d.store.Commit(rec.id, nil)
	}
}

// markCrash kills the master exactly once and arms the watchdog that
// bounds the blackout even if the abandon window never fills.
func (d *failoverDriver) markCrash() {
	d.mu.Lock()
	d.crashWall = wallClock()
	d.mu.Unlock()
	d.pair.KillMaster()
	close(d.crashed)
	go d.watchdog()
}

func (d *failoverDriver) watchdog() {
	time.Sleep(2 * time.Second)
	select {
	case <-d.recovered:
	default:
		d.promoteAndRecover()
	}
}

// promoteAndRecover promotes the standby synchronously (running the §6
// redo), re-arms the pair with a fresh standby, and releases every op
// held hostage by the blackout.
func (d *failoverDriver) promoteAndRecover() {
	// Quiesce: wait out ops still inside log→process→commit on the dead
	// master, and wait for every acked-but-commit-lost op to reach the
	// log (all LostCommits of them arrived before the crash op could —
	// the arrival counter orders them — but their appends may still be
	// in flight). This models the failure-detection gap — by the time
	// the standby promotes, the dead master's in-flight work is either
	// durably in the log or lost; none lands mid-rebuild.
	for d.inflight.Load() != 0 || d.lost.Load() != int64(d.spec.LostCommits) {
		time.Sleep(10 * time.Microsecond)
	}
	d.logOnce.Do(func() {
		n := d.store.Log.Len()
		d.mu.Lock()
		d.logLenAtPromote = n
		d.mu.Unlock()
	})
	d.pair.PromoteNow()
	d.recoverOnce.Do(func() {
		d.pair.AttachStandby("wl-standby-2", d.redo)
		d.mu.Lock()
		d.recoveryWall = wallClock().Sub(d.crashWall)
		d.mu.Unlock()
		close(d.recovered)
	})
}

// redo is the promoted standby's WAL redo handler. Entries already
// executed (acked ops whose commits were lost) are the §6 re-delivery the
// duplicate detector catches — their effects are in place, so they are
// not re-applied. Unexecuted entries (abandoned in-flight ops) run now,
// and their blocked callers are released.
func (d *failoverDriver) redo(e nib.LogEntry) error {
	rec, ok := e.Payload.(*opRecord)
	if !ok {
		return nil
	}
	if rec.claimed.CompareAndSwap(false, true) {
		rec.run()
	} else {
		// Already executed — the §6 re-delivery of an acked op whose
		// commit was lost. Wait for its execution to finish so the
		// commit's apply sees the final image, and count the duplicate
		// instead of re-applying the op's effects.
		<-rec.ran
		d.dups.Add(1)
	}
	if rec.done != nil {
		close(rec.done)
	}
	// Commit "done" regardless of the op's own outcome: the image payload
	// reflects what actually happened.
	return nil
}

// reattachDevices models the promoted standby taking over the southbound
// connections: every leaf's devices re-attach (re-handshake) to the
// controller, the real counterpart of a standby adopting the sockets.
func (d *failoverDriver) reattachDevices() {
	for _, leaf := range d.cl.OwnedLeaves() {
		for _, dev := range leaf.Devices() {
			leaf.AttachDevice(dev)
			d.reattached.Add(1)
		}
	}
}

func (d *failoverDriver) noteBlockedWait(w time.Duration) {
	d.mu.Lock()
	if w > d.maxBlockedWait {
		d.maxBlockedWait = w
	}
	d.mu.Unlock()
}

// checkUETables asserts UE-table convergence: the replicated table
// (rebuilt from checkpoint + delta) must exactly match the rows the live
// leaf controllers actually hold after recovery.
// genesisReplica builds a replica primed with the pre-run UE table.
func (d *failoverDriver) genesisReplica() *ueTableReplica {
	r := newUETableReplica()
	r.Restore(d.genesis)
	return r
}

// captureGenesis snapshots the cluster's pre-run UE table. Genesis rows
// carry Seq -1 so the very first logged op for a UE always supersedes
// its initial-attach row.
func (d *failoverDriver) captureGenesis() {
	r := newUETableReplica()
	for _, leaf := range d.cl.OwnedLeaves() {
		for _, rec := range leaf.UERecords() {
			r.rows[rec.UE] = ueImage{
				Seq:     -1,
				Present: true,
				Row:     fmt.Sprintf("%s %s %s %s %d %t", leaf.ID, rec.BS, rec.Group, rec.Prefix, rec.QoS, rec.Active),
			}
		}
	}
	d.genesis = r.Snapshot()
}

func (d *failoverDriver) checkUETables() (lost int, err error) {
	fresh := d.genesisReplica()
	d.store.Rebuild(fresh)
	replica := fresh.presentRows()
	actual := make(map[string]string)
	for _, leaf := range d.cl.OwnedLeaves() {
		for _, r := range leaf.UERecords() {
			actual[r.UE] = fmt.Sprintf("%s %s %s %s %d %t", leaf.ID, r.BS, r.Group, r.Prefix, r.QoS, r.Active)
		}
	}
	for ue, want := range replica {
		got, ok := actual[ue]
		if !ok {
			lost++
			err = fmt.Errorf("workload: acked UE %s missing from controller tables (lost event)", ue)
		} else if got != want {
			lost++
			err = fmt.Errorf("workload: UE %s diverged: replica %q, controller %q", ue, want, got)
		}
	}
	for ue := range actual {
		if _, ok := replica[ue]; !ok {
			lost++
			err = fmt.Errorf("workload: controller UE %s never committed to the replica", ue)
		}
	}
	return lost, err
}

// FailoverPassStats is one measured failover pass, emitted under the
// report's failover section.
type FailoverPassStats struct {
	SnapshotEvery      int     `json:"snapshot_every"`
	KillAtOp           int     `json:"kill_at_op"`
	LostCommits        int     `json:"lost_commits"`
	AbandonedInFlight  int     `json:"abandoned_in_flight"`
	BlackoutBlockedOps int     `json:"blackout_blocked_ops"`
	MaxBlockedWaitNs   int64   `json:"max_blocked_wait_ns"`
	PromotionLatencyNs int64   `json:"promotion_latency_ns"`
	RecoveryWallNs     int64   `json:"recovery_wall_ns"`
	RedoneEntries      int     `json:"redone_entries"`
	DuplicatesDetected int     `json:"duplicates_detected"`
	EventsLost         int     `json:"events_lost"`
	FromSnapshot       bool    `json:"from_snapshot"`
	SnapshotSeq        int     `json:"snapshot_seq"`
	SnapshotBytes      int     `json:"snapshot_bytes"`
	ReplayedEntries    int     `json:"replayed_entries"`
	LogLenAtPromote    int     `json:"log_len_at_promote"`
	LogLenFinal        int     `json:"log_len_final"`
	TotalLogged        int     `json:"total_logged"`
	DevicesReattached  int     `json:"devices_reattached"`
	ReplicaConverged   bool    `json:"replica_converged"`
	UETableConverged   bool    `json:"ue_table_converged"`
	StateDigest        string  `json:"state_digest"`
	EventsPerSec       float64 `json:"events_per_sec"`
}

// FailoverSection is the report's failover-under-fire block: the same
// schedule run with incremental snapshots and with full-history replay,
// plus the digest cross-check against the plain (no-failover) run.
type FailoverSection struct {
	BaselineStateDigest string             `json:"baseline_state_digest"`
	DigestsMatch        bool               `json:"digests_match"`
	Snapshot            *FailoverPassStats `json:"snapshot_pass"`
	FullReplay          *FailoverPassStats `json:"full_replay_pass"`
	// ReplayReduction is full-replay entries over snapshot-pass entries —
	// the O(history)/O(delta) ratio the incremental snapshots buy.
	ReplayReduction float64 `json:"replay_reduction"`
}

// BuildFailoverSection cross-checks both passes against the plain run's
// state digest and computes the replay-reduction ratio.
func BuildFailoverSection(baselineDigest string, snap, full *FailoverPassStats) *FailoverSection {
	s := &FailoverSection{
		BaselineStateDigest: baselineDigest,
		DigestsMatch:        snap.StateDigest == baselineDigest && full.StateDigest == baselineDigest,
		Snapshot:            snap,
		FullReplay:          full,
	}
	if snap.ReplayedEntries > 0 {
		s.ReplayReduction = float64(full.ReplayedEntries) / float64(snap.ReplayedEntries)
	}
	return s
}

// RunFailoverPass executes cfg's schedule with a planned master crash per
// spec and returns the run result, the cluster (for digesting), and the
// measured pass stats. The run fails if recovery never completes, if
// mastership is not single afterwards, or if the replicated UE table
// diverged from the live controllers.
func RunFailoverPass(cfg Config, spec FailoverSchedule) (*Result, *Cluster, *FailoverPassStats, error) {
	// Closed-loop only: open-loop lanes block whole workers, which shrinks
	// the abandon window's blocking capacity below the schedule's needs.
	cfg.Mode = ModeClosed
	if err := cfg.normalize(); err != nil {
		return nil, nil, nil, err
	}
	spec, err := spec.Normalized(cfg.Events, cfg.Workers)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, cl, err := NewEngine(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	store := ha.NewSharedStore()
	store.SnapshotEvery = spec.SnapshotEvery
	d := &failoverDriver{
		spec: spec, cl: cl, store: store,
		crashed: make(chan struct{}), recovered: make(chan struct{}),
	}
	d.captureGenesis()
	store.SetStateMachine(d.genesisReplica())
	d.pair = ha.NewPair(simnet.New(), store, "wl-master", "wl-standby", d.redo)
	d.pair.NewReplica = func() ha.StateMachine { return d.genesisReplica() }
	d.pair.OnPromote = func(ha.PromotionStats) { d.reattachDevices() }
	eng.SetExecWrapper(d.wrap)

	res := eng.Run()

	select {
	case <-d.recovered:
	default:
		return nil, nil, nil, fmt.Errorf("workload: failover never completed (schedule %+v over %d ops)", spec, len(res.Ops))
	}
	if n := d.pair.MasterCount(); n != 1 {
		return nil, nil, nil, fmt.Errorf("workload: %d masters after failover", n)
	}
	ps := d.pair.LastPromotion()
	lostUEs, tableErr := d.checkUETables()

	d.mu.Lock()
	recovery, maxWait, logAtPromote := d.recoveryWall, d.maxBlockedWait, d.logLenAtPromote
	d.mu.Unlock()
	stats := &FailoverPassStats{
		SnapshotEvery:      spec.SnapshotEvery,
		KillAtOp:           spec.KillAt,
		LostCommits:        int(d.lost.Load()),
		AbandonedInFlight:  int(d.abandoned.Load()),
		BlackoutBlockedOps: int(d.blocked.Load()),
		MaxBlockedWaitNs:   maxWait.Nanoseconds(),
		PromotionLatencyNs: ps.Latency.Nanoseconds(),
		RecoveryWallNs:     recovery.Nanoseconds(),
		RedoneEntries:      ps.Redone,
		DuplicatesDetected: int(d.dups.Load()),
		EventsLost:         lostUEs,
		FromSnapshot:       ps.Rebuild.FromSnapshot,
		SnapshotSeq:        ps.Rebuild.SnapshotSeq,
		SnapshotBytes:      ps.Rebuild.SnapshotBytes,
		ReplayedEntries:    ps.Rebuild.Replayed,
		LogLenAtPromote:    logAtPromote,
		LogLenFinal:        store.Log.Len(),
		TotalLogged:        int(store.Log.NextID()),
		DevicesReattached:  int(d.reattached.Load()),
		ReplicaConverged:   ps.Converged,
		UETableConverged:   tableErr == nil,
		StateDigest:        StateDigest(cl),
		EventsPerSec:       res.EventsPerSec(),
	}
	if tableErr != nil {
		return res, cl, stats, fmt.Errorf("workload: UE-table convergence: %w", tableErr)
	}
	return res, cl, stats, nil
}
