package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/nib"
	"repro/internal/northbound"
	"repro/internal/southbound"
)

// NewDistRoot creates the root controller of an R-region cluster: the
// launcher's root in a distributed run, and BuildCluster's in-process
// root, so both carry the same level, index and shard count.
func NewDistRoot(regions, shards int) *core.Controller {
	root := core.NewController("root", 2, regions)
	if shards != 0 {
		root.SetUEShardCount(shards)
	}
	return root
}

// FinishDistRoot completes the root's bootstrap once every region child is
// attached (in region order) — the distributed counterpart of
// core.AssembleTwoLevel. In-band discovery flushes each child's view,
// but the ring links joining regions cannot be discovered: their
// endpoints' emission frames die on stub ports in the neighbor-less
// region slices. Those links are instead stitched from the features every
// child exposes — each region's G-switch carries exactly one internal
// non-radio port over its egress switch (ring out) and one over its
// access switch (ring in) — using the ring's own latency and bandwidth,
// so the root's NIB ends up identical to the in-process build's.
func FinishDistRoot(root *core.Controller, devs []*core.ConnDevice) error {
	root.RunDiscovery()
	if err := northbound.FenceDiscovery(devs); err != nil {
		return err
	}
	type ringPorts struct {
		gsw     dataplane.DeviceID
		out, in dataplane.PortID
	}
	ports := make([]ringPorts, len(devs))
	for k, d := range devs {
		fr, err := d.Features()
		if err != nil {
			return fmt.Errorf("workload: region %d: %w", k, err)
		}
		rp := ringPorts{gsw: fr.Device}
		for _, p := range fr.Ports {
			if p.External || p.Radio != "" {
				continue
			}
			switch p.Underlying.Dev {
			case egressSwitch(k):
				rp.out = p.ID
			case accessSwitch(k):
				rp.in = p.ID
			}
		}
		if rp.out == 0 || rp.in == 0 {
			return fmt.Errorf("workload: region %d (%s) exposes no ring ports", k, fr.Device)
		}
		ports[k] = rp
	}
	for k := range ports {
		n := (k + 1) % len(ports)
		root.NIB.PutLink(nib.Link{
			A:         dataplane.PortRef{Dev: ports[k].gsw, Port: ports[k].out},
			B:         dataplane.PortRef{Dev: ports[n].gsw, Port: ports[n].in},
			Latency:   ringLatency,
			Bandwidth: linkMbps,
			Up:        true,
		})
	}
	core.RefreshDerived(root)
	return nil
}

// SliceBounds splits R regions into P contiguous [lo, hi) slices, one per
// process, the first regions%procs slices one region larger.
func SliceBounds(regions, procs int) [][2]int {
	base, extra := regions/procs, regions%procs
	bounds := make([][2]int, procs)
	lo := 0
	for i := range bounds {
		hi := lo + base
		if i < extra {
			hi++
		}
		bounds[i] = [2]int{lo, hi}
		lo = hi
	}
	return bounds
}

// distProc is the launcher's handle on one spawned region process.
type distProc struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Scanner
	lo, hi int
}

// send writes one command line to the process.
func (p *distProc) send(format string, args ...interface{}) error {
	_, err := fmt.Fprintf(p.in, format+"\n", args...)
	return err
}

// expect reads the next line and checks its first token, returning the
// remainder. An ERROR line is surfaced as an error.
func (p *distProc) expect(verb string) (string, error) {
	if !p.out.Scan() {
		if err := p.out.Err(); err != nil {
			return "", fmt.Errorf("workload: region proc died: %w", err)
		}
		return "", fmt.Errorf("workload: region proc closed stdout awaiting %s", verb)
	}
	line := p.out.Text()
	rest, ok := strings.CutPrefix(line, verb+" ")
	if !ok && line != verb {
		if msg, isErr := strings.CutPrefix(line, "ERROR "); isErr {
			return "", fmt.Errorf("workload: region proc: %s", msg)
		}
		return "", fmt.Errorf("workload: region proc said %q, want %s", line, verb)
	}
	return rest, nil
}

// RunDistributed executes cfg's schedule on a multi-process cluster: the
// launcher hosts the root controller and spawns procs region processes
// (each exec'd as regionArgv), splits the regions contiguously among
// them, assembles the tree over localhost TCP, and runs every process's
// owned slice of the same generated schedule concurrently. The returned
// report carries the composed replay digests — comparable, by
// construction, to an in-process run of the same config — plus per-process
// and aggregate throughput.
func RunDistributed(cfg Config, procs int, regionArgv []string) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if procs < 1 || procs > cfg.Regions {
		return nil, fmt.Errorf("workload: procs must be in [1, %d], got %d", cfg.Regions, procs)
	}
	if len(regionArgv) == 0 {
		return nil, fmt.Errorf("workload: empty region argv")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()

	bounds := SliceBounds(cfg.Regions, procs)
	ps := make([]*distProc, procs)
	owner := make([]*distProc, cfg.Regions)
	defer func() {
		for _, p := range ps {
			if p != nil && p.cmd.Process != nil {
				p.in.Close()
				_ = p.cmd.Process.Kill() //softmow:allow errdiscard best-effort teardown of an already-failed launch
				_ = p.cmd.Wait()         //softmow:allow errdiscard best-effort teardown of an already-failed launch
			}
		}
	}()
	for i := range ps {
		cmd := exec.Command(regionArgv[0], regionArgv[1:]...)
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		outPipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("workload: start region proc %d: %w", i, err)
		}
		out := bufio.NewScanner(outPipe)
		out.Buffer(make([]byte, 0, 1<<20), 1<<20)
		p := &distProc{cmd: cmd, in: in, out: out, lo: bounds[i][0], hi: bounds[i][1]}
		ps[i] = p
		for k := p.lo; k < p.hi; k++ {
			owner[k] = p
		}
		rc := RegionConfig{Config: cfg, Lo: p.lo, Hi: p.hi, Addr: ln.Addr().String(), Proc: i}
		doc, err := json.Marshal(rc)
		if err != nil {
			return nil, err
		}
		if err := p.send("%s", doc); err != nil {
			return nil, err
		}
		if _, err := p.expect("READY"); err != nil {
			return nil, fmt.Errorf("proc %d: %w", i, err)
		}
	}

	// Assemble the tree: children attach in region order, so the root's
	// device and child bookkeeping matches the in-process build.
	root := NewDistRoot(cfg.Regions, cfg.Shards)
	devs := make([]*core.ConnDevice, 0, cfg.Regions)
	for k := 0; k < cfg.Regions; k++ {
		if err := owner[k].send("CONNECT %d", k); err != nil {
			return nil, err
		}
		nc, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		d, err := northbound.AttachRemoteChild(root, southbound.NewBinConn(nc))
		if err != nil {
			return nil, fmt.Errorf("workload: attach region %d: %w", k, err)
		}
		devs = append(devs, d)
		if _, err := owner[k].expect("CONNECTED"); err != nil {
			return nil, fmt.Errorf("region %d: %w", k, err)
		}
	}
	if err := FinishDistRoot(root, devs); err != nil {
		return nil, err
	}
	// Interdomain propagation in region order — the root appends route
	// options in push order and its tie-break depends on it.
	for k := 0; k < cfg.Regions; k++ {
		if err := owner[k].send("PROP %d", k); err != nil {
			return nil, err
		}
		if _, err := owner[k].expect("PROPPED"); err != nil {
			return nil, fmt.Errorf("region %d: %w", k, err)
		}
	}

	// Run every slice concurrently; collect results in proc order (reads
	// simply block until each process finishes).
	for i, p := range ps {
		if err := p.send("RUN"); err != nil {
			return nil, fmt.Errorf("proc %d: %w", i, err)
		}
	}
	results := make([]ProcResult, procs)
	for i, p := range ps {
		rest, err := p.expect("RESULT")
		if err != nil {
			return nil, fmt.Errorf("proc %d: %w", i, err)
		}
		if err := json.Unmarshal([]byte(rest), &results[i]); err != nil {
			return nil, fmt.Errorf("proc %d: bad result: %w", i, err)
		}
	}

	// Compose the state digest: the root's own section, then each leaf's
	// (shipped via section files) in region order.
	sections := [][]byte{StateSection(root)}
	finalUEs := root.UECount()
	sectionByRegion := make(map[int][]byte, cfg.Regions)
	for i, res := range results {
		for j, path := range res.SectionFiles {
			sec, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("proc %d: %w", i, err)
			}
			_ = os.Remove(path) //softmow:allow errdiscard temp-file cleanup, the OS reaps leftovers
			sectionByRegion[res.Lo+j] = sec
		}
	}
	for k := 0; k < cfg.Regions; k++ {
		sec, ok := sectionByRegion[k]
		if !ok {
			return nil, fmt.Errorf("workload: no state section for region %d", k)
		}
		sections = append(sections, sec)
		finalUEs += bytes.Count(sec, []byte("\n")) - 1 // rows, minus the header line
	}

	for i, p := range ps {
		if err := p.send("QUIT"); err != nil {
			return nil, fmt.Errorf("proc %d: %w", i, err)
		}
		if _, err := p.expect("BYE"); err != nil {
			return nil, fmt.Errorf("proc %d: %w", i, err)
		}
		p.in.Close()
		if err := p.cmd.Wait(); err != nil {
			return nil, fmt.Errorf("proc %d: %w", i, err)
		}
		ps[i] = nil
	}

	return assembleDistReport(cfg, procs, results, sections, finalUEs), nil
}

// assembleDistReport merges per-process results into one report. The
// cluster-level rate divides total executed events by the slowest
// process's wall time: all slices start together, so that is when the
// last event lands.
func assembleDistReport(cfg Config, procs int, results []ProcResult, sections [][]byte, finalUEs int) *Report {
	rep := &Report{
		Config:      buildReportConfig(cfg),
		Ops:         make(map[string]OpStats),
		TraceDigest: TraceDigest(NewGenerator(cfg).Generate()),
		StateDigest: ComposeStateDigest(sections),
		FinalUEs:    finalUEs,
		Distributed: &DistributedStats{Procs: procs},
	}
	var maxElapsed float64
	for _, res := range results {
		rep.Events += res.Events
		rep.Failures += res.Failures
		rep.Stalls += res.Stalls
		if rep.FirstErr == "" {
			rep.FirstErr = res.FirstErr
		}
		if res.ElapsedSec > maxElapsed {
			maxElapsed = res.ElapsedSec
		}
		eps := 0.0
		if res.ElapsedSec > 0 {
			eps = float64(res.Events) / res.ElapsedSec
		}
		rep.Distributed.Per = append(rep.Distributed.Per, RegionProcStats{
			Proc: res.Proc, Lo: res.Lo, Hi: res.Hi,
			Events: res.Events, Failures: res.Failures, FirstErr: res.FirstErr,
			ElapsedSec: res.ElapsedSec, EventsPerSec: eps,
			RegionEvents: res.RegionEvents,
		})
		for kind, st := range res.PerOp {
			rep.Ops[kind] = mergeOpStats(rep.Ops[kind], st)
		}
	}
	rep.ElapsedSec = maxElapsed
	if maxElapsed > 0 {
		rep.EventsPerSec = float64(rep.Events) / maxElapsed
	}
	rep.Distributed.AggregateEPS = rep.EventsPerSec
	return rep
}

// mergeOpStats combines two per-kind stats blocks: counts add, means
// combine count-weighted, and the order statistics take the pessimistic
// maximum (exact cross-process quantiles would need the raw samples).
func mergeOpStats(a, b OpStats) OpStats {
	total := a.Count + b.Count
	if total == 0 {
		return OpStats{}
	}
	m := OpStats{Count: total, Failures: a.Failures + b.Failures}
	m.Mean = time.Duration((int64(a.Mean)*a.Count + int64(b.Mean)*b.Count) / total)
	m.P50 = maxDur(a.P50, b.P50)
	m.P99 = maxDur(a.P99, b.P99)
	m.Max = maxDur(a.Max, b.Max)
	return m
}

// maxDur returns the larger duration.
func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
