package workload

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"

	"repro/internal/core"
	"repro/internal/netem"
)

// TraceDigest hashes the replayable event schedule: FNV-64a over every
// op's trace line. Two runs with the same seed and config must produce
// identical digests regardless of worker count or mode.
func TraceDigest(ops []Op) string {
	h := fnv.New64a()
	for _, op := range ops {
		fmt.Fprintln(h, op.TraceLine())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// StateSection renders one controller's contribution to the state digest:
// a header line naming the controller, then each UE row's seed-determined
// fields — UE, BS, Group, Prefix, QoS, Active. PathID and HandledBy are
// deliberately excluded: path identifiers depend on the interleaving of
// concurrent setups, while the logical table state does not. Sections are
// the unit a distributed run ships to its launcher, which composes them
// into the same digest an in-process run computes directly.
func StateSection(c *core.Controller) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# %s\n", c.ID)
	for _, r := range c.UERecords() { // sorted by UE ID
		fmt.Fprintf(&b, "%s %s %s %s %d %t\n", r.UE, r.BS, r.Group, r.Prefix, r.QoS, r.Active)
	}
	return b.Bytes()
}

// ComposeStateDigest hashes pre-rendered state sections in order. Callers
// must pass the root's section first, then each leaf's in region order —
// the order StateDigest uses — for the digests to be comparable.
func ComposeStateDigest(sections [][]byte) string {
	h := fnv.New64a()
	for _, s := range sections {
		h.Write(s)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// StateDigest hashes the final logical UE-table state across every
// controller in the cluster: root first, then leaves in region order.
func StateDigest(cl *Cluster) string {
	sections := make([][]byte, 0, 1+len(cl.Hier.Leaves))
	sections = append(sections, StateSection(cl.Hier.Root))
	for _, leaf := range cl.Hier.Leaves {
		sections = append(sections, StateSection(leaf))
	}
	return ComposeStateDigest(sections)
}

// FinalUECount sums UE-table rows across every controller.
func FinalUECount(cl *Cluster) int {
	n := cl.Hier.Root.UECount()
	for _, leaf := range cl.Hier.Leaves {
		n += leaf.UECount()
	}
	return n
}

// ReportConfig is the config echo embedded in a report, including the
// runtime provenance (Go toolchain, scheduler width, host CPU count) a
// reader needs to judge whether two benchmark documents are comparable.
type ReportConfig struct {
	Seed        int64   `json:"seed"`
	Regions     int     `json:"regions"`
	BSPerRegion int     `json:"bs_per_region"`
	UEs         int     `json:"ues"`
	Events      int     `json:"events"`
	Shards      int     `json:"shards"`
	Mode        string  `json:"mode"`
	Workers     int     `json:"workers"`
	MaxInFlight int     `json:"max_in_flight"`
	RatePerSec  float64 `json:"rate_per_sec"`
	GoVersion   string  `json:"go_version"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
}

// buildReportConfig echoes cfg with the runtime provenance filled in.
func buildReportConfig(cfg Config) ReportConfig {
	return ReportConfig{
		Seed: cfg.Seed, Regions: cfg.Regions, BSPerRegion: cfg.BSPerRegion,
		UEs: cfg.UEs, Events: cfg.Events, Shards: cfg.Shards,
		Mode: string(cfg.Mode), Workers: cfg.Workers,
		MaxInFlight: cfg.MaxInFlight, RatePerSec: cfg.RatePerSec,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Report is the BENCH_workload.json document.
type Report struct {
	Config       ReportConfig       `json:"config"`
	Events       int                `json:"events"`
	Failures     int64              `json:"failures"`
	FirstErr     string             `json:"first_err,omitempty"` // distributed runs: the first process error below
	ElapsedSec   float64            `json:"elapsed_sec"`
	EventsPerSec float64            `json:"events_per_sec"`
	Stalls       int64              `json:"stalls"`
	Ops          map[string]OpStats `json:"ops"`
	TraceDigest  string             `json:"trace_digest"`
	StateDigest  string             `json:"state_digest"`
	FinalUEs     int                `json:"final_ues"`
	Distributed  *DistributedStats  `json:"distributed,omitempty"`
	Failover     *FailoverSection   `json:"failover,omitempty"`
	Impairment   *ImpairmentMatrix  `json:"impairment,omitempty"`
}

// ImpairmentScenario is one row of the impaired-WAN scenario matrix: the
// channel conditions, the run outcome, the link-level netem accounting,
// and the adaptive-timeout telemetry (samples accepted, barrier retries
// spent, replies that arrived after their fence expired).
type ImpairmentScenario struct {
	Name         string        `json:"name"`
	Profile      netem.Profile `json:"profile"`
	Events       int           `json:"events"`
	Failures     int64         `json:"failures"`
	ElapsedSec   float64       `json:"elapsed_sec"`
	EventsPerSec float64       `json:"events_per_sec"`
	TraceDigest  string        `json:"trace_digest"`
	StateDigest  string        `json:"state_digest"`
	Netem        netem.Stats   `json:"netem"`
	// RTTSamples / BarrierRetries / StaleReplies are deltas of the
	// process-global southbound counters over this scenario's run.
	RTTSamples     int64             `json:"rtt_samples"`
	BarrierRetries int64             `json:"barrier_retries"`
	StaleReplies   int64             `json:"stale_replies"`
	Partition      *PartitionOutcome `json:"partition,omitempty"`
}

// PartitionOutcome records a scheduled-partition scenario's liveness
// trajectory: suspects declared while the region was dark, targeted
// rediscoveries on heal, and whether every link came back up.
type PartitionOutcome struct {
	Suspects      int64 `json:"suspects"`
	Rediscoveries int64 `json:"rediscoveries"`
	LinksRestored bool  `json:"links_restored"`
}

// ImpairmentMatrix is the "impairment" report section cmd/loadgen
// -impair-matrix emits.
type ImpairmentMatrix struct {
	Scenarios []ImpairmentScenario `json:"scenarios"`
}

// RegionProcStats is one region process's contribution to a distributed
// run.
type RegionProcStats struct {
	// Proc is the process index; Lo/Hi bound its owned regions.
	Proc int `json:"proc"`
	Lo   int `json:"lo"`
	Hi   int `json:"hi"`
	// Events is the number of schedule ops the process executed.
	Events       int     `json:"events"`
	Failures     int64   `json:"failures"`
	FirstErr     string  `json:"first_err,omitempty"` // the process's first failed op
	ElapsedSec   float64 `json:"elapsed_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
	// RegionEvents maps each owned region index to its op count.
	RegionEvents map[string]int `json:"region_events"`
}

// DistributedStats summarizes a multi-process run: the per-process rates
// and the aggregate the scaling experiment plots.
type DistributedStats struct {
	Procs int               `json:"procs"`
	Per   []RegionProcStats `json:"per_proc"`
	// AggregateEPS is total executed events over the slowest process's
	// wall time — the cluster-level sustained rate.
	AggregateEPS float64 `json:"aggregate_events_per_sec"`
}

// BuildReport assembles the report for one finished run.
func BuildReport(cfg Config, cl *Cluster, res *Result) *Report {
	if err := cfg.normalize(); err != nil {
		// Run already succeeded with this config; normalize cannot fail now.
		panic(err)
	}
	return &Report{
		Config:       buildReportConfig(cfg),
		Events:       len(res.Ops),
		Failures:     res.Failures,
		ElapsedSec:   res.Elapsed.Seconds(),
		EventsPerSec: res.EventsPerSec(),
		Stalls:       res.Stalls,
		Ops:          res.PerOp,
		TraceDigest:  TraceDigest(res.Ops),
		StateDigest:  StateDigest(cl),
		FinalUEs:     FinalUECount(cl),
	}
}
