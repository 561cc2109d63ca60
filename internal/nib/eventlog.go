package nib

import (
	"sync"
)

// EventLog implements the §6 failure-recovery discipline: "When the master
// controller receives an event, it first logs the event arrival in the NIB,
// and then processes it. When the master fails, the hot standby ... checks
// the event logs and redoes unfinished events."
//
// Entries move through logged → finished (done or failed); a standby
// replays all logged-but-not-finished entries on promotion. The log also
// serves as the delta source for incremental snapshots (ha.SharedStore):
// a checkpoint records the log's low-water mark, after which everything
// below it can be truncated — promotion then replays snapshot + delta
// instead of the full history.
type EventLog struct {
	mu      sync.Mutex
	entries map[uint64]*LogEntry
	order   []uint64
	nextID  uint64
	// lwm is the low-water mark: every entry with ID < lwm is finished
	// (done, failed, or already truncated). Guarded by mu.
	lwm uint64
}

// LogEntry is one logged control-plane event.
type LogEntry struct {
	ID   uint64
	Kind string
	// Payload carries whatever the application needs to redo the event.
	Payload interface{}
	Done    bool
	// Failed marks a finished entry whose processing returned an error;
	// replicas replaying the log skip failed entries (they had no effect).
	Failed bool
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog {
	return &EventLog{entries: make(map[uint64]*LogEntry)}
}

// Append records an event arrival and returns its ID. Call MarkDone (or
// MarkOutcome) once the event has been fully processed.
func (l *EventLog) Append(kind string, payload interface{}) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.nextID
	l.nextID++
	l.entries[id] = &LogEntry{ID: id, Kind: kind, Payload: payload}
	l.order = append(l.order, id)
	return id
}

// MarkDone marks an entry successfully processed. Unknown IDs are ignored.
func (l *EventLog) MarkDone(id uint64) {
	l.MarkOutcome(id, false)
}

// MarkOutcome finishes an entry with its processing outcome and advances
// the low-water mark past every finished prefix entry. Unknown IDs are
// ignored.
func (l *EventLog) MarkOutcome(id uint64, failed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[id]
	if !ok {
		return
	}
	e.Done = true
	e.Failed = failed
	for l.lwm < l.nextID {
		p, ok := l.entries[l.lwm]
		if ok && !p.Done {
			break
		}
		// Missing entries were truncated or compacted, which requires
		// them to have been finished.
		l.lwm++
	}
}

// LowWaterMark returns the lowest ID not yet finished: every entry with a
// smaller ID is done or failed. A checkpoint taken at mark m plus the
// entries from m onward reconstruct the full history.
func (l *EventLog) LowWaterMark() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lwm
}

// NextID returns the ID the next Append will assign — the total number of
// entries ever logged.
func (l *EventLog) NextID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextID
}

// Entry returns a copy of one entry by ID.
func (l *EventLog) Entry(id uint64) (LogEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[id]
	if !ok {
		return LogEntry{}, false
	}
	return *e, true
}

// Unfinished returns copies of all logged-but-not-finished entries in
// arrival order — exactly what a promoted standby must redo.
func (l *EventLog) Unfinished() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []LogEntry
	for _, id := range l.order {
		if e := l.entries[id]; e != nil && !e.Done {
			out = append(out, *e)
		}
	}
	return out
}

// EntriesSince returns copies of the retained entries with ID ≥ from, in
// arrival order — the delta a standby replays on top of a checkpoint taken
// at low-water mark `from`.
func (l *EventLog) EntriesSince(from uint64) []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []LogEntry
	for _, id := range l.order {
		if id < from {
			continue
		}
		if e := l.entries[id]; e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// Len reports the number of retained entries.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// TruncateThrough drops every finished entry with ID < upto, returning how
// many were removed. Unfinished entries are always retained regardless of
// position — promotion redo must still see them — so callers pass the
// low-water mark recorded in a committed checkpoint.
func (l *EventLog) TruncateThrough(upto uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	kept := l.order[:0]
	for _, id := range l.order {
		e := l.entries[id]
		if e != nil && id < upto && e.Done {
			delete(l.entries, id)
			removed++
			continue
		}
		kept = append(kept, id)
	}
	l.order = kept
	return removed
}
