package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// opRec is what the driver keeps per scheduled op: when its latency clock
// started (execution start in the closed loop, due time in the open
// loop), when it completed, and how it ended. Times are nanoseconds since
// the run's epoch; end == 0 means the op was never issued.
type opRec struct {
	from, end int64
	lagNs     int64 // open loop: how late the pacer issued it
	failed    bool
}

// load drives one schedule against one system and records every op.
type load struct {
	sys   *system
	ops   []workload.Op
	recs  []opRec // parallel to ops
	epoch time.Time

	errMu    sync.Mutex
	errs     []string // first maxErrs distinct error strings
	failures atomic.Int64
}

const maxErrs = 5

func (l *load) now() int64 { return int64(time.Since(l.epoch)) }

// run executes op i, which must be the next op of its UE, and records it.
// from < 0 starts the latency clock now.
func (l *load) run(i int, from int64) {
	if from < 0 {
		from = l.now()
	}
	err := l.sys.exec(&l.ops[i])
	rec := &l.recs[i]
	rec.from, rec.end = from, l.now()
	if err != nil {
		rec.failed = true
		l.failures.Add(1)
		l.noteErr(err)
	}
}

func (l *load) noteErr(err error) {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	msg := err.Error()
	for _, e := range l.errs {
		if e == msg {
			return
		}
	}
	if len(l.errs) < maxErrs {
		l.errs = append(l.errs, msg)
	}
}

// chain hands out per-UE completion chains: an op waits on the channel
// returned for its UE's previous op, so one UE's ops run in schedule
// order while distinct UEs overlap. Used by one issuing goroutine.
type chain map[int]chan struct{}

func (c chain) next(ue int) (prev, done chan struct{}) {
	prev, done = c[ue], make(chan struct{})
	c[ue] = done
	return prev, done
}

// queues splits ops[from:to) into the closed loop's lanes.
func (l *load) queues(from, to int) [][]int32 {
	qs := make([][]int32, lanes)
	for i := from; i < to; i++ {
		q := l.ops[i].UE % lanes
		qs[q] = append(qs[q], int32(i))
	}
	return qs
}

// closed drains the lane queues closed loop: laneWindow ops
// in flight per lane. With a zero deadline every op runs; otherwise each
// lane stops issuing at the deadline and lets its in-flight ops finish.
// Because lanes are keyed by UE, what ran is a prefix of every UE's own
// op sequence — a state the replay check can reproduce exactly. It
// returns, per lane, the indices that ran.
func (l *load) closed(queues [][]int32, deadline time.Time) [][]int32 {
	var wg sync.WaitGroup
	for q := range queues {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queues[q] = queues[q][:l.drainLane(queues[q], deadline)]
		}()
	}
	wg.Wait()
	return queues
}

func (l *load) drainLane(queue []int32, deadline time.Time) (issued int) {
	sem := make(chan struct{}, laneWindow)
	waits := make(chain, laneWindow)
	for _, i := range queue {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		prev, done := waits.next(l.ops[i].UE)
		sem <- struct{}{}
		issued++
		go func() {
			defer func() {
				<-sem
				close(done)
			}()
			if prev != nil {
				<-prev
			}
			l.run(int(i), -1)
		}()
	}
	for k := 0; k < laneWindow; k++ {
		sem <- struct{}{}
	}
	return issued
}

// open offers ops[from:to) open loop: op k is due k/rate after the start,
// whatever the system's pace. One pacer issues them in order under an
// in-flight cap of openWindow; each op's latency runs from its due time,
// so a stall is charged to every op it delays, and the pacer's own
// lateness (sleep overshoot plus time blocked on the cap) is recorded
// per op. inflight samples the window occupancy at each issue.
func (l *load) open(from, to int, rate float64) (inflightMean float64) {
	tokens := make(chan struct{}, openWindow)
	waits := make(chain)
	start := l.now()
	var inflightSum int64
	for i := from; i < to; i++ {
		due := start + int64(float64(i-from)/rate*1e9)
		if d := due - l.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		inflightSum += int64(len(tokens))
		tokens <- struct{}{}
		l.recs[i].lagNs = l.now() - due
		prev, done := waits.next(l.ops[i].UE)
		go func() {
			defer func() {
				<-tokens
				close(done)
			}()
			if prev != nil {
				<-prev
			}
			l.run(i, due)
		}()
	}
	for k := 0; k < openWindow; k++ {
		tokens <- struct{}{}
	}
	return float64(inflightSum) / float64(to-from)
}
