package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/northbound"
	"repro/internal/southbound"
	"repro/internal/workload"
)

// system is the controller tree under test, seen the way the load driver
// needs it: one serving leaf per region plus the root, however the two
// are connected.
type system struct {
	regions []workload.Region // every entry carries its Leaf
	root    *core.Controller
	// net is the data plane holding region k's switches.
	net func(k int) *dataplane.Network
	// rootDevs are the root-side devices of a TCP tree (nil in-process).
	rootDevs []*core.ConnDevice
	// links are the traced root↔child connections of a TCP tree.
	links []*tracedConn
	// drain waits out control-plane work still in flight on any
	// connection; close tears the tree down and waits for its goroutines.
	drain func(time.Duration) error
	close func()
}

// buildInProcess builds the whole tree in one workload.Cluster: leaves
// joined to the root by the in-process ParentLink, switches direct
// (delay 0) or behind Pipe+ImpairedConn agents.
func buildInProcess(cfg workload.Config) (*system, error) {
	cl, err := workload.BuildCluster(cfg.Regions, cfg.BSPerRegion, cfg.Shards,
		workload.ControlPlane{Delay: cfg.ControlDelay, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	relaxRTO(cl.OwnedLeaves())
	return &system{
		regions: cl.Regions,
		root:    cl.Hier.Root,
		net:     func(int) *dataplane.Network { return cl.Net },
		drain: func(timeout time.Duration) error {
			return drainLeaves(cl.OwnedLeaves(), timeout)
		},
		close: cl.Close,
	}, nil
}

// relaxRTO raises the adaptive fence timeout's floor on every protocol
// device of the given leaves from the 5 ms LAN default to fenceMinRTO. On
// a loaded 2-core box a scheduling stall outlasts the default's whole
// retry budget (5+10+20 ms) a few times per million fences, the op fails
// with "fence failed after 3 attempts", and every later op of that UE
// fails after it; see README "Sizing findings". The field is public and
// is set while no fence is outstanding.
func relaxRTO(leaves []*core.Controller) {
	for _, leaf := range leaves {
		for _, d := range leaf.Devices() {
			if cd, ok := d.(*core.ConnDevice); ok {
				cd.MinRTO = fenceMinRTO
			}
		}
	}
}

func drainLeaves(leaves []*core.Controller, timeout time.Duration) error {
	for _, leaf := range leaves {
		for _, d := range leaf.Devices() {
			if cd, ok := d.(*core.ConnDevice); ok {
				if err := cd.Drain(timeout); err != nil {
					return fmt.Errorf("drain %s/%s: %w", leaf.ID, d.ID(), err)
				}
			}
		}
	}
	return nil
}

// buildTCPTree assembles the two-level tree the way the distributed
// launcher does, minus the process boundary: one RegionProc slice per
// region, each dialling the root over loopback TCP. With trace set every
// root-side connection is wrapped to count frames, bytes and syscalls and
// to time fences; untraced runs use the bare BinConn.
func buildTCPTree(cfg workload.Config, trace *tracer) (sys *system, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()

	sys = &system{regions: make([]workload.Region, cfg.Regions)}
	procs := make([]*workload.RegionProc, 0, cfg.Regions)
	sys.close = func() {
		for _, d := range sys.rootDevs {
			_ = d.Close() // teardown; the conn is discarded either way
		}
		for _, p := range procs {
			p.Close()
		}
		for _, d := range sys.rootDevs {
			d.WaitStopped()
		}
	}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	sys.drain = func(timeout time.Duration) error {
		for _, p := range procs {
			if err := p.Drain(timeout); err != nil {
				return err
			}
		}
		for _, d := range sys.rootDevs {
			if err := d.Drain(timeout); err != nil {
				return err
			}
		}
		return nil
	}
	for k := 0; k < cfg.Regions; k++ {
		p, err := workload.NewRegionProc(workload.RegionConfig{
			Config: cfg, Lo: k, Hi: k + 1, Addr: ln.Addr().String(), Proc: k,
		})
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", k, err)
		}
		procs = append(procs, p)
		sys.regions[k] = p.Cluster().Regions[k]
		relaxRTO(p.Cluster().OwnedLeaves())
	}
	sys.net = func(k int) *dataplane.Network { return procs[k].Cluster().Net }

	sys.root = workload.NewDistRoot(cfg.Regions, cfg.Shards)
	for k, p := range procs {
		connected := make(chan error, 1)
		go func() { connected <- p.ConnectRegion(k) }()
		nc, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("accept region %d: %w", k, err)
		}
		var conn southbound.Conn
		if trace != nil {
			tc := newTracedConn(nc, trace, fmt.Sprintf("root-L%d", k))
			sys.links = append(sys.links, tc)
			conn = tc
		} else {
			conn = southbound.NewBinConn(nc)
		}
		d, err := northbound.AttachRemoteChild(sys.root, conn)
		if err != nil {
			nc.Close()
			<-connected
			return nil, fmt.Errorf("attach region %d: %w", k, err)
		}
		d.MinRTO = fenceMinRTO // see relaxRTO
		sys.rootDevs = append(sys.rootDevs, d)
		if err := <-connected; err != nil {
			return nil, fmt.Errorf("connect region %d: %w", k, err)
		}
	}
	if err := workload.FinishDistRoot(sys.root, sys.rootDevs); err != nil {
		return nil, err
	}
	for k, p := range procs {
		if err := p.Propagate(k); err != nil {
			return nil, fmt.Errorf("propagate region %d: %w", k, err)
		}
	}
	return sys, nil
}

// stateDigest composes the replay digest the way workload.StateDigest
// does (root section, then leaves in region order) and counts UE rows.
func (s *system) stateDigest() (digest string, ues int) {
	sections := [][]byte{workload.StateSection(s.root)}
	ues = s.root.UECount()
	for _, r := range s.regions {
		sections = append(sections, workload.StateSection(r.Leaf))
		ues += r.Leaf.UECount()
	}
	return workload.ComposeStateDigest(sections), ues
}

// exec dispatches one op to the UE's serving leaf, exactly as
// workload.Engine does.
func (s *system) exec(op *workload.Op) error {
	r := &s.regions[op.Region]
	ue := workload.UEName(op.UE)
	switch op.Kind {
	case workload.OpAttach, workload.OpBearerSetup:
		_, err := r.Leaf.HandleBearerRequest(core.BearerRequest{
			UE: ue, BS: r.BSes[op.BS],
			Prefix: s.regions[op.Prefix].Prefix, QoS: 1,
		})
		return err
	case workload.OpBearerTeardown:
		return r.Leaf.DeactivateBearer(ue)
	case workload.OpHandoverIntra:
		return r.Leaf.Handover(ue, r.Group, r.BSes[op.BS])
	case workload.OpHandoverInter:
		d := &s.regions[op.Dst]
		return r.Leaf.Handover(ue, d.Group, d.BSes[op.DstBS])
	case workload.OpDetach:
		return r.Leaf.Detach(ue)
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
}
