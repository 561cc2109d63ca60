package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/northbound"
	"repro/internal/southbound"
)

// RegionConfig is the JSON document a launcher hands a region process on
// stdin before any command: the shared (already normalized) workload
// config, the contiguous region slice the process owns, and the
// launcher's northbound listener address.
type RegionConfig struct {
	Config Config `json:"config"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Addr   string `json:"addr"`
	Proc   int    `json:"proc"`
}

// ProcResult is the JSON document a region process reports after RUN.
// UE-table state rides in section files (one per owned region, in region
// order) rather than inline: at the 1M-UE scale the sections are tens of
// megabytes, which has no business on a line-oriented control pipe.
type ProcResult struct {
	Proc         int                `json:"proc"`
	Lo           int                `json:"lo"`
	Hi           int                `json:"hi"`
	Events       int                `json:"events"`
	Failures     int64              `json:"failures"`
	Stalls       int64              `json:"stalls"`
	ElapsedSec   float64            `json:"elapsed_sec"`
	RegionEvents map[string]int     `json:"region_events"`
	PerOp        map[string]OpStats `json:"per_op"`
	FirstErr     string             `json:"first_err,omitempty"`
	SectionFiles []string           `json:"section_files"`
}

// RegionProc is one region process of a distributed cluster: the owned
// data-plane slice, its leaves' northbound links, and the engine that
// executes the owned part of the schedule.
type RegionProc struct {
	rc    RegionConfig
	cl    *Cluster
	links map[int]*northbound.ParentConn
}

// NewRegionProc validates the config and builds the owned region slice.
func NewRegionProc(rc RegionConfig) (*RegionProc, error) {
	if err := rc.Config.normalize(); err != nil {
		return nil, err
	}
	cl, err := BuildRegionSlice(rc.Config.Regions, rc.Config.BSPerRegion,
		rc.Config.Shards, rc.Config.controlPlane(), rc.Lo, rc.Hi)
	if err != nil {
		return nil, err
	}
	return &RegionProc{rc: rc, cl: cl, links: make(map[int]*northbound.ParentConn)}, nil
}

// Cluster exposes the owned slice (tests drive it directly).
func (p *RegionProc) Cluster() *Cluster { return p.cl }

// ConnectRegion dials the launcher and attaches region k's leaf over the
// northbound wire. The launcher sequences these calls across processes in
// region order, so its root sees children attach deterministically.
func (p *RegionProc) ConnectRegion(k int) error {
	if k < p.rc.Lo || k >= p.rc.Hi {
		return fmt.Errorf("workload: region %d not owned by proc %d [%d, %d)", k, p.rc.Proc, p.rc.Lo, p.rc.Hi)
	}
	nc, err := net.Dial("tcp", p.rc.Addr)
	if err != nil {
		return err
	}
	pc, err := northbound.Connect(p.cl.Regions[k].Leaf, southbound.NewBinConn(nc))
	if err != nil {
		nc.Close()
		return err
	}
	p.links[k] = pc
	return nil
}

// Propagate pushes region k's interdomain routes to the launcher's root.
func (p *RegionProc) Propagate(k int) error {
	if k < p.rc.Lo || k >= p.rc.Hi {
		return fmt.Errorf("workload: region %d not owned by proc %d", k, p.rc.Proc)
	}
	return p.cl.Regions[k].Leaf.PropagateInterdomainErr()
}

// Run generates the full schedule from the shared (seed, config), filters
// it to the owned regions, and executes it.
func (p *RegionProc) Run() (*ProcResult, error) {
	eng, err := NewEngineOn(p.rc.Config, p.cl)
	if err != nil {
		return nil, err
	}
	owned := p.cl.OwnedOps(NewGenerator(p.rc.Config).Generate())
	res := eng.RunOps(owned)
	pr := &ProcResult{
		Proc: p.rc.Proc, Lo: p.rc.Lo, Hi: p.rc.Hi,
		Events: len(res.Ops), Failures: res.Failures, Stalls: res.Stalls,
		ElapsedSec:   res.Elapsed.Seconds(),
		RegionEvents: make(map[string]int, p.rc.Hi-p.rc.Lo),
		PerOp:        res.PerOp,
	}
	for _, op := range owned {
		pr.RegionEvents[strconv.Itoa(op.Region)]++
	}
	if res.FirstErr != nil {
		pr.FirstErr = res.FirstErr.Error()
	}
	return pr, nil
}

// WriteSections renders each owned leaf's state-digest section to a temp
// file and returns the paths in region order.
func (p *RegionProc) WriteSections() ([]string, error) {
	paths := make([]string, 0, p.rc.Hi-p.rc.Lo)
	for k := p.rc.Lo; k < p.rc.Hi; k++ {
		f, err := os.CreateTemp("", fmt.Sprintf("softmow-section-L%d-*", k))
		if err != nil {
			return nil, err
		}
		_, werr := f.Write(StateSection(p.cl.Regions[k].Leaf))
		cerr := f.Close()
		if werr != nil || cerr != nil {
			return nil, fmt.Errorf("workload: section %s: %v / %v", f.Name(), werr, cerr)
		}
		paths = append(paths, f.Name())
	}
	return paths, nil
}

// Drain flushes in-flight control-plane work — outstanding northbound
// requests and, when the slice attaches switches over delayed pipes, the
// southbound fences behind them — so a teardown (QUIT or SIGTERM) never
// strands a half-installed batch behind a closed connection.
func (p *RegionProc) Drain(timeout time.Duration) error {
	var firstErr error
	for k := p.rc.Lo; k < p.rc.Hi; k++ {
		if pc := p.links[k]; pc != nil {
			if err := pc.Drain(timeout); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		leaf := p.cl.Regions[k].Leaf
		for _, d := range leaf.Devices() {
			if cd, ok := d.(*core.ConnDevice); ok {
				if err := cd.Drain(timeout); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}

// Close tears down the northbound connections, then the slice's delayed
// southbound attachments, waiting until every agent and device goroutine
// has exited.
func (p *RegionProc) Close() {
	for _, pc := range p.links {
		_ = pc.Close() //softmow:allow errdiscard teardown of an already-drained conn; the transport is being discarded either way
	}
	p.cl.Close()
}

// RegionMain runs one region process's command loop against a launcher:
// read the RegionConfig line, then serve CONNECT/PROP/RUN until QUIT.
// register, if non-nil, receives the constructed RegionProc before READY
// is reported — loadgen's -as-region mode uses it to wire the SIGTERM
// drain path.
func RegionMain(r io.Reader, w io.Writer, register func(*RegionProc)) error {
	in := bufio.NewScanner(r)
	in.Buffer(make([]byte, 0, 1<<20), 1<<20)
	reply := func(format string, args ...interface{}) {
		fmt.Fprintf(w, format+"\n", args...)
	}
	if !in.Scan() {
		return fmt.Errorf("workload: no region config on stdin: %v", in.Err())
	}
	var rc RegionConfig
	if err := json.Unmarshal(in.Bytes(), &rc); err != nil {
		return fmt.Errorf("workload: bad region config: %w", err)
	}
	p, err := NewRegionProc(rc)
	if err != nil {
		reply("ERROR %v", err)
		return err
	}
	if register != nil {
		register(p)
	}
	defer p.Close()
	reply("READY %d", rc.Proc)
	for in.Scan() {
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			continue
		}
		arg := func() (int, error) {
			if len(fields) < 2 {
				return 0, fmt.Errorf("workload: %s needs a region argument", fields[0])
			}
			return strconv.Atoi(fields[1])
		}
		switch fields[0] {
		case "CONNECT":
			k, err := arg()
			if err == nil {
				err = p.ConnectRegion(k)
			}
			if err != nil {
				reply("ERROR %v", err)
				return err
			}
			reply("CONNECTED %d", k)
		case "PROP":
			k, err := arg()
			if err == nil {
				err = p.Propagate(k)
			}
			if err != nil {
				reply("ERROR %v", err)
				return err
			}
			reply("PROPPED %d", k)
		case "RUN":
			pr, err := p.Run()
			if err == nil {
				pr.SectionFiles, err = p.WriteSections()
			}
			if err != nil {
				reply("ERROR %v", err)
				return err
			}
			doc, err := json.Marshal(pr)
			if err != nil {
				reply("ERROR %v", err)
				return err
			}
			reply("RESULT %s", doc)
		case "QUIT":
			if err := p.Drain(5 * time.Second); err != nil {
				// Report but still exit cleanly: the launcher is tearing
				// the cluster down either way.
				fmt.Fprintf(os.Stderr, "region proc %d: drain: %v\n", rc.Proc, err)
			}
			reply("BYE %d", rc.Proc)
			return nil
		default:
			err := fmt.Errorf("workload: unknown command %q", fields[0])
			reply("ERROR %v", err)
			return err
		}
	}
	return in.Err()
}
