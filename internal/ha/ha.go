package ha

import (
	"errors"
	"sync"
	"time"

	"repro/internal/nib"
	"repro/internal/simnet"
)

// ErrNoMaster is returned by HandleEvent when neither instance of a pair
// currently holds mastership (master dead, standby not yet promoted).
// Callers in the failover path treat it as retryable: the op blocks until
// the standby promotes, preserving exactly-once execution.
var ErrNoMaster = errors.New("ha: no live master")

// Role is an instance's current role.
type Role int

const (
	// RoleStandby observes and waits.
	RoleStandby Role = iota
	// RoleMaster processes events.
	RoleMaster
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RoleMaster {
		return "master"
	}
	return "standby"
}

// SharedStore is the reliable storage both instances share (§6: "NIB is
// decoupled from the controller logic and stored in a reliable storage
// system (e.g. Zookeeper). The NIB is shared between the master and
// standby"). Beyond the NIB and event log it optionally replicates an
// application StateMachine and checkpoints it incrementally (snapshot.go).
type SharedStore struct {
	NIB *nib.NIB
	Log *nib.EventLog

	// SnapshotEvery triggers an inline checkpoint after this many committed
	// entries; 0 disables snapshotting (the log then grows until Compact).
	// Set at bootstrap, before events flow.
	SnapshotEvery int

	mu sync.Mutex
	// sm is the live replica state machine, guarded by mu.
	sm StateMachine
	// sinceSnap counts commits since the last committed checkpoint,
	// guarded by mu.
	sinceSnap int
	// snapSeq is the sequence number of the last committed checkpoint,
	// guarded by mu.
	snapSeq int
	// checkpoint is the last committed checkpoint, guarded by mu.
	checkpoint *Checkpoint
	// writing reports an in-progress snapshot capture, guarded by mu.
	writing bool
}

// NewSharedStore creates a store with a fresh NIB (whose event log is
// reused as the shared log).
func NewSharedStore() *SharedStore {
	n := nib.New()
	return &SharedStore{NIB: n, Log: n.Log()}
}

// Instance is one controller instance of a logical node.
type Instance struct {
	ID string

	mu sync.Mutex
	// role is the current HA role, guarded by mu.
	role Role
	// alive reports instance liveness, guarded by mu.
	alive bool
	// redo is invoked for each unfinished log entry on promotion; its error
	// becomes the entry's recorded outcome. guarded by mu.
	redo func(nib.LogEntry) error
	// processed counts events this instance fully handled, guarded by mu.
	processed int
}

// NewInstance creates a live instance in the given role.
func NewInstance(id string, role Role, redo func(nib.LogEntry) error) *Instance {
	return &Instance{ID: id, role: role, alive: true, redo: redo}
}

// Role returns the current role.
func (i *Instance) Role() Role {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.role
}

// Alive reports liveness.
func (i *Instance) Alive() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.alive
}

// Pair manages a master/standby instance pair over a shared store.
type Pair struct {
	Store *SharedStore

	// HeartbeatInterval is how often the master beats.
	HeartbeatInterval time.Duration
	// FailureTimeout is how long the standby waits before declaring the
	// master dead (must exceed HeartbeatInterval).
	FailureTimeout time.Duration

	// NewReplica, when set, makes promotion rebuild application state from
	// the store (checkpoint + delta replay) into a fresh StateMachine and
	// adopt it as the live replica, recording the rebuild cost and whether
	// it converged with the pre-failure replica. Set at bootstrap.
	NewReplica func() StateMachine

	// OnPromote, when set, runs after a completed promotion with its
	// measured stats — the hook the chaos/workload drivers use to re-attach
	// devices to the promoted master and unblock held traffic. Set at
	// bootstrap.
	OnPromote func(PromotionStats)

	mu sync.Mutex
	// sim is the driving simulator; set at construction, immutable after.
	sim *simnet.Sim
	// master is the current master instance, guarded by mu.
	master *Instance
	// standby is the current standby instance, guarded by mu.
	standby *Instance
	// lastBeat is the sim time of the last heartbeat, guarded by mu.
	lastBeat time.Duration
	// Failovers counts promotions, guarded by mu.
	Failovers int
	// lastPromotion records the most recent promotion's measured cost,
	// guarded by mu.
	lastPromotion PromotionStats
}

// NewPair creates a pair with default timing (100 ms beats, 350 ms
// timeout) and starts the heartbeat machinery on the simulator.
func NewPair(sim *simnet.Sim, store *SharedStore, masterID, standbyID string, redo func(nib.LogEntry) error) *Pair {
	p := &Pair{
		Store:             store,
		HeartbeatInterval: 100 * time.Millisecond,
		FailureTimeout:    350 * time.Millisecond,
		sim:               sim,
		master:            NewInstance(masterID, RoleMaster, redo),
		standby:           NewInstance(standbyID, RoleStandby, redo),
		lastBeat:          sim.Now(),
	}
	p.scheduleBeat()
	p.scheduleCheck()
	return p
}

// Master returns the current master instance (nil if both failed).
func (p *Pair) Master() *Instance {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.master != nil && p.master.Alive() && p.master.Role() == RoleMaster {
		return p.master
	}
	if p.standby != nil && p.standby.Alive() && p.standby.Role() == RoleMaster {
		return p.standby
	}
	return nil
}

// HandleEvent runs one control-plane event through the write-ahead log
// discipline: log arrival → process → commit outcome (which also applies
// successful entries to the replicated StateMachine and checkpoints on
// cadence). Returns ErrNoMaster when no master is available, else the
// process error.
func (p *Pair) HandleEvent(kind string, payload interface{}, process func() error) error {
	m := p.Master()
	if m == nil {
		return ErrNoMaster
	}
	id := p.Store.Log.Append(kind, payload)
	err := process()
	p.Store.Commit(id, err)
	m.mu.Lock()
	m.processed++
	m.mu.Unlock()
	return err
}

// LogOnly records an event arrival without completing it — used to model a
// master crashing mid-event.
func (p *Pair) LogOnly(kind string, payload interface{}) uint64 {
	return p.Store.Log.Append(kind, payload)
}

// AttachStandby installs a fresh standby instance after a failover, making
// the pair survivable again: the promoted instance moves into the master
// slot and the new instance takes the standby slot. The heartbeat clock
// resets so the newcomer isn't immediately promoted off stale state.
func (p *Pair) AttachStandby(id string, redo func(nib.LogEntry) error) *Instance {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.standby != nil && p.standby.Alive() && p.standby.Role() == RoleMaster {
		p.master = p.standby
	}
	s := NewInstance(id, RoleStandby, redo)
	p.standby = s
	p.lastBeat = p.sim.Now()
	return s
}

// KillMaster fails the master instance; the standby will detect the missed
// heartbeats and promote itself.
func (p *Pair) KillMaster() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.master != nil {
		p.master.mu.Lock()
		p.master.alive = false
		p.master.mu.Unlock()
	}
}

// PromoteNow fails the master and promotes the standby synchronously,
// without waiting for the heartbeat timeout — the planned-failover path
// chaos schedules use so the blackout window is the promotion itself, not
// detection latency. Reports whether a promotion actually ran (false when
// no live standby exists or it is already master).
func (p *Pair) PromoteNow() bool {
	p.KillMaster()
	p.mu.Lock()
	can := p.standby != nil && p.standby.Alive() && p.standby.Role() == RoleStandby
	p.mu.Unlock()
	if !can {
		return false
	}
	return p.promote()
}

func (p *Pair) scheduleBeat() {
	p.sim.After(p.HeartbeatInterval, func() {
		p.mu.Lock()
		if p.master != nil && p.master.Alive() {
			p.lastBeat = p.sim.Now()
		}
		p.mu.Unlock()
		p.scheduleBeat()
	})
}

func (p *Pair) scheduleCheck() {
	p.sim.After(p.FailureTimeout/2, func() {
		p.check()
		p.scheduleCheck()
	})
}

func (p *Pair) check() {
	p.mu.Lock()
	stale := p.sim.Now()-p.lastBeat > p.FailureTimeout
	canPromote := stale && p.standby != nil && p.standby.Alive() && p.standby.Role() == RoleStandby &&
		(p.master == nil || !p.master.Alive())
	p.mu.Unlock()
	if !canPromote {
		return
	}
	p.promote()
}

// wallClock reads the real clock for promotion-latency measurement. Virtual
// (sim) time cannot measure promotion cost: the redo/rebuild work runs
// between sim steps, so sim.Now() would report zero.
func wallClock() time.Time {
	return time.Now() //softmow:allow determinism latency measurement only, never feeds back into control flow
}

// promote switches the standby to master and redoes unfinished events (§6:
// "the hot standby detects this and immediately checks the event logs and
// redo unfinished events"). When NewReplica is set the promoted standby
// first rebuilds application state from checkpoint + delta; redone entries
// are then committed through the store so the adopted replica sees them.
// Reports whether this call performed the promotion (false if the standby
// was already master or missing — promote is idempotent under the
// heartbeat-check vs PromoteNow race).
func (p *Pair) promote() bool {
	start := wallClock()
	p.mu.Lock()
	s := p.standby
	if s == nil {
		p.mu.Unlock()
		return false
	}
	s.mu.Lock()
	if s.role != RoleStandby || !s.alive {
		s.mu.Unlock()
		p.mu.Unlock()
		return false
	}
	s.role = RoleMaster
	redo := s.redo
	s.mu.Unlock()
	p.Failovers++
	newReplica := p.NewReplica
	onPromote := p.OnPromote
	p.mu.Unlock()

	stats := PromotionStats{Converged: true}
	if newReplica != nil {
		sm := newReplica()
		stats.Rebuild = p.Store.Rebuild(sm)
		stats.Converged = p.Store.AdoptReplica(sm)
	}
	for _, entry := range p.Store.Log.Unfinished() {
		var err error
		if redo != nil {
			err = redo(entry)
		}
		p.Store.Commit(entry.ID, err)
		s.mu.Lock()
		s.processed++
		s.mu.Unlock()
		stats.Redone++
	}
	stats.Latency = wallClock().Sub(start)
	mPromotions.Inc()
	mPromotionLatency.Observe(stats.Latency)
	mRedoneEntries.Add(int64(stats.Redone))
	mReplayedEntries.Add(int64(stats.Rebuild.Replayed))

	p.mu.Lock()
	p.lastPromotion = stats
	p.mu.Unlock()
	if onPromote != nil {
		onPromote(stats)
	}
	return true
}

// LastPromotion returns the measured stats of the most recent promotion
// (zero value before any failover).
func (p *Pair) LastPromotion() PromotionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastPromotion
}

// MasterCount reports how many live instances currently claim mastership —
// must never exceed 1.
func (p *Pair) MasterCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	count := 0
	for _, in := range []*Instance{p.master, p.standby} {
		if in != nil && in.Alive() && in.Role() == RoleMaster {
			count++
		}
	}
	return count
}
