package main

import (
	"fmt"
	"net"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	repro "repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/nib"
	"repro/internal/routing"
	"repro/internal/southbound"
	"repro/internal/workload"
)

// Isolated probes: single-threaded timed loops over one layer's public
// functions, on inputs taken from a benchmark-shaped tree (4 regions × 4
// BS, two levels over loopback TCP): its leaf and root NIBs and the
// frames its root↔child wrappers captured. They answer "what does this
// layer cost per call with nothing else running", the number a layer
// change is expected to move first.

// probeUEs sizes the probe tree: NIB shape depends on topology, not
// population, so it stays small.
const probeUEs, probeOps = 2000, 4000

// timeLoop calls fn in batches until min has elapsed and returns the mean
// nanoseconds per call.
func timeLoop(min time.Duration, fn func()) float64 {
	batch, calls := 1, 0
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		if el := time.Since(start); el >= min {
			return float64(el) / float64(calls)
		}
		if batch < 1<<16 {
			batch *= 2
		}
	}
}

// allocsPer returns the mean heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	s := []metrics.Sample{{Name: rtAllocObjects}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	for i := 0; i < n; i++ {
		fn()
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-before) / float64(n)
}

// runProbes builds the probe tree, captures frames from a short run on
// it, and times every probe for at least min. A probe that cannot be set
// up is an error: a missing number must not read as zero.
func runProbes(min time.Duration) (map[string]float64, error) {
	got := map[string]float64{}
	sp, _ := specByName("tree_tcp")
	sp.ues, sp.warm = probeUEs, probeOps
	cfg := sp.config(1, probeOps)

	t0 := time.Now()
	ops, err := workload.GenerateSchedule(cfg)
	if err != nil {
		return nil, err
	}
	got["workload.generate_ns_per_op"] = float64(time.Since(t0)) / float64(len(ops))

	tr := &tracer{epoch: time.Now()}
	tr.on.Store(true)
	sys, err := buildTCPTree(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	l := &load{sys: sys, ops: ops, recs: make([]opRec, len(ops)), epoch: tr.epoch}
	l.closed(l.queues(0, len(ops)), time.Time{})
	if n := l.failures.Load(); n > 0 {
		return nil, fmt.Errorf("probe tree: %d ops failed: %v", n, l.errs)
	}
	tr.on.Store(false)

	if err := probeCodec(got, min, sys); err != nil {
		return nil, err
	}
	if err := probeConns(got, min); err != nil {
		return nil, err
	}
	if err := probeNetem(got, min); err != nil {
		return nil, err
	}
	probeFlowTable(got, min)
	if err := probeRouting(got, min, sys); err != nil {
		return nil, err
	}
	if err := probeBearerSetup(got, min, cfg); err != nil {
		return nil, err
	}
	probeNIB(got, min, sys)

	var h repro.DurationHist
	got["metrics.hist_observe_ns"] = timeLoop(min, func() { h.Observe(137 * time.Microsecond) })
	return got, nil
}

// probeCodec times AppendFrame and DecodeFrame over the hot frame types:
// one captured frame of each type the root↔child wire carried, plus a
// three-rule FlowModBatch (the shape a leaf sends each switch per path;
// the root's own installs are single FlowMods) assembled from the
// captured FlowMod. It reports the mean across types.
func probeCodec(got map[string]float64, min time.Duration, sys *system) error {
	hot := []southbound.MsgType{
		southbound.TypeFlowMod, southbound.TypeBarrierRequest, southbound.TypeBarrierReply,
		southbound.TypeNbBearer, southbound.TypeNbHandover, southbound.TypeNbPathReply,
	}
	var msgs []southbound.Msg
	for _, t := range hot {
		var frame []byte
		for _, c := range sys.links {
			c.mu.Lock()
			if f := c.captured[t]; f != nil {
				frame = f
			}
			c.mu.Unlock()
		}
		if frame == nil {
			return fmt.Errorf("probe tree captured no %s frame", t)
		}
		m, err := southbound.DecodeFrame(frame[4:])
		if err != nil {
			return fmt.Errorf("captured %s frame does not decode: %w", t, err)
		}
		msgs = append(msgs, m)
	}
	fm, ok := msgs[0].Body.(southbound.FlowMod)
	if !ok {
		return fmt.Errorf("captured flow-mod body is %T", msgs[0].Body)
	}
	msgs = append(msgs, southbound.Msg{Type: southbound.TypeFlowModBatch, Xid: msgs[0].Xid,
		Datapath: msgs[0].Datapath, Body: southbound.FlowModBatch{Mods: []southbound.FlowMod{fm, fm, fm}}})
	frames := make([][]byte, len(msgs))
	for i := range msgs {
		f, err := southbound.AppendFrame(nil, &msgs[i])
		if err != nil {
			return fmt.Errorf("encode %s: %w", msgs[i].Type, err)
		}
		frames[i] = f
	}
	buf := make([]byte, 0, 4096)
	i := 0
	encode := func() {
		buf, _ = southbound.AppendFrame(buf[:0], &msgs[i%len(msgs)]) // every msg encoded cleanly above
		i++
	}
	got["southbound.encode_ns_per_frame"] = timeLoop(min, encode)
	got["southbound.encode_allocs_per_frame"] = allocsPer(7000, encode)
	got["southbound.decode_ns_per_frame"] = timeLoop(min, func() {
		_, _ = southbound.DecodeFrame(frames[i%len(frames)][4:]) // frames produced by AppendFrame above
		i++
	})
	return nil
}

// echo answers every message on c with itself until c closes.
func echo(c southbound.Conn, done chan<- struct{}) {
	defer close(done)
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		if c.Send(m) != nil {
			return
		}
	}
}

func roundTrip(c southbound.Conn) error {
	if err := c.Send(southbound.Msg{Type: southbound.TypeEchoRequest, Xid: 1, Body: southbound.Echo{}}); err != nil {
		return err
	}
	_, err := c.Recv()
	return err
}

// probeConns times one message round trip over a loopback BinConn and
// over an in-memory Pipe, and one fenced three-rule batch against a real
// switch agent with no control delay.
func probeConns(got map[string]float64, min time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- nc
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	peer, ok := <-accepted
	if !ok {
		nc.Close()
		return fmt.Errorf("probe: loopback accept failed")
	}
	near, far := southbound.NewBinConn(nc), southbound.NewBinConn(peer)
	farDone := make(chan struct{})
	go echo(far, farDone)
	var rtErr error
	got["southbound.binconn_rtt_us"] = timeLoop(min, func() {
		if err := roundTrip(near); err != nil {
			rtErr = err
		}
	}) / 1e3
	near.Close()
	far.Close()
	<-farDone
	if rtErr != nil {
		return fmt.Errorf("probe: binconn round trip: %w", rtErr)
	}

	a, b := southbound.Pipe(16)
	pipeDone := make(chan struct{})
	go echo(b, pipeDone)
	got["southbound.pipe_rtt_us"] = timeLoop(min, func() {
		if err := roundTrip(a); err != nil {
			rtErr = err
		}
	}) / 1e3
	a.Close()
	<-pipeDone
	if rtErr != nil {
		return fmt.Errorf("probe: pipe round trip: %w", rtErr)
	}

	dnet := dataplane.NewNetwork()
	sw := dnet.AddSwitch("S")
	sw.AddPort(1)
	sw.AddPort(2)
	agent := southbound.NewSwitchAgent(dnet, sw)
	ctrlEnd, devEnd := southbound.Pipe(256)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = agent.Serve(devEnd) // exits when the pipe closes below
	}()
	dev, err := core.DialDevice(ctrlEnd, "probe")
	if err != nil {
		return fmt.Errorf("probe: dial agent: %w", err)
	}
	n := 0
	got["southbound.agent_batch_us"] = timeLoop(min, func() {
		owner := fmt.Sprintf("p%d", n)
		n++
		rules := make([]dataplane.Rule, 3)
		for i := range rules {
			rules[i] = dataplane.Rule{Priority: 10, Owner: owner, Version: 1,
				Match:   dataplane.Match{InPort: 1, UE: owner, QoS: -1},
				Actions: []dataplane.Action{dataplane.Output(2)}}
		}
		if err := dev.InstallRules(rules); err != nil {
			rtErr = err
		}
	}) / 1e3
	_ = dev.Close() // teardown of a probe-local pipe
	<-served
	dev.WaitStopped()
	if rtErr != nil {
		return fmt.Errorf("probe: agent batch: %w", rtErr)
	}
	return nil
}

// probeNetem times Link.Send on a 200 µs delay link, and how far past
// 200 µs an idle ImpairedConn delivers: the timer-wake cost that sets
// low-rate latency.
func probeNetem(got map[string]float64, min time.Duration) error {
	link := netem.NewWallLink(func(interface{}) {}, netem.Profile{Delay: controlDelay}, nil)
	got["netem.link_send_ns"] = timeLoop(min, func() { _ = link.Send(nil, 64) }) // only a closed link errors
	if err := link.Close(); err != nil {
		return err
	}

	a, b := southbound.Pipe(16)
	ic := southbound.NewImpairedConn(a, netem.Profile{Delay: controlDelay}, nil)
	defer ic.Close()
	var overshoot time.Duration
	samples := 0
	for start := time.Now(); time.Since(start) < min || samples < 20; samples++ {
		time.Sleep(2 * time.Millisecond) // let the link's scheduler go idle
		sent := time.Now()
		if err := ic.Send(southbound.Msg{Type: southbound.TypeEchoRequest, Body: southbound.Echo{}}); err != nil {
			return err
		}
		if _, err := b.Recv(); err != nil {
			return err
		}
		overshoot += time.Since(sent) - controlDelay
	}
	got["netem.delay_overshoot_us"] = float64(overshoot) / float64(samples) / 1e3
	return nil
}

// probeFlowTable times Add, RemoveByOwner and Lookup on a 10k-rule table
// of per-UE rules, the shape bearer setup leaves on an access switch.
func probeFlowTable(got map[string]float64, min time.Duration) {
	const size = 10_000
	rule := func(i int) dataplane.Rule {
		ue := fmt.Sprintf("ue%07d", i)
		return dataplane.Rule{Priority: 10, Owner: ue, Version: 1,
			Match:   dataplane.Match{InPort: 1, UE: ue, QoS: -1},
			Actions: []dataplane.Action{dataplane.Output(2)}}
	}
	rules := make([]dataplane.Rule, 2*size)
	for i := range rules {
		rules[i] = rule(i)
	}
	ft := dataplane.NewFlowTable()
	for i := 0; i < size; i++ {
		ft.Add(rules[i])
	}
	// Add and remove alternate on the upper half of the key space so the
	// table stays at its size.
	i := 0
	var addNs, rmNs time.Duration
	rounds := 0
	for start := time.Now(); time.Since(start) < 2*min; rounds++ {
		t := time.Now()
		for k := 0; k < 1000; k++ {
			ft.Add(rules[size+(i+k)%size])
		}
		addNs += time.Since(t)
		t = time.Now()
		for k := 0; k < 1000; k++ {
			ft.RemoveByOwner(rules[size+(i+k)%size].Owner)
		}
		rmNs += time.Since(t)
		i += 1000
	}
	got["dataplane.flowtable_add_ns"] = float64(addNs) / float64(rounds*1000)
	got["dataplane.flowtable_remove_owner_ns"] = float64(rmNs) / float64(rounds*1000)
	pkt := &dataplane.Packet{UE: rules[size/2].Owner, QoS: 1}
	got["dataplane.flowtable_lookup_ns"] = timeLoop(min, func() { ft.Lookup(1, pkt) })
}

// probeRouting times graph construction and one shortest path on the
// leaf's and the root's NIB, a graph-cache hit, a locally resolved
// recursive route, and the leaf's abstraction recompute.
func probeRouting(got map[string]float64, min time.Duration, sys *system) error {
	reg := sys.regions[0]
	leaf, root := reg.Leaf, sys.root
	got["routing.build_graph_leaf_us"] = timeLoop(min, func() { routing.BuildGraph(leaf.NIB) }) / 1e3
	got["routing.build_graph_root_us"] = timeLoop(min, func() { routing.BuildGraph(root.NIB) }) / 1e3
	got["routing.build_graph_leaf_allocs"] = allocsPer(50, func() { routing.BuildGraph(leaf.NIB) })
	got["core.graph_hit_ns"] = timeLoop(min, func() { leaf.Graph() })

	req := core.RouteRequest{From: reg.Attach, Prefix: reg.Prefix}
	res, err := leaf.RouteRecursive(req)
	if err != nil {
		return fmt.Errorf("probe: leaf route: %w", err)
	}
	got["core.route_recursive_ns"] = timeLoop(min, func() { _, _ = leaf.RouteRecursive(req) }) // resolved once already
	pts := res.Path.Points
	lg := leaf.Graph()
	got["routing.shortest_path_leaf_us"] = timeLoop(min, func() {
		_, _ = lg.ShortestPath(pts[0], pts[len(pts)-1], routing.MinHops, routing.Constraints{}) // same endpoints as the route above
	}) / 1e3

	gport, ok := leaf.ExposedPortFor(reg.Attach)
	if !ok {
		return fmt.Errorf("probe: %s exposes no port for its radio attachment", leaf.ID)
	}
	rres, err := root.Route(core.RouteRequest{
		From:   dataplane.PortRef{Dev: leaf.GSwitchID(), Port: gport},
		Prefix: sys.regions[2].Prefix,
	})
	if err != nil {
		return fmt.Errorf("probe: root route: %w", err)
	}
	rpts := rres.Path.Points
	rg := root.Graph()
	got["routing.shortest_path_root_us"] = timeLoop(min, func() {
		_, _ = rg.ShortestPath(rpts[0], rpts[len(rpts)-1], routing.MinHops, routing.Constraints{}) // same endpoints as the route above
	}) / 1e3

	got["reca.compute_ms"] = timeLoop(min, func() { leaf.ComputeAbstraction() }) / 1e6
	return nil
}

// probeBearerSetup times HandleBearerRequest for fresh UEs on a tree with
// direct devices: the whole CPU path of an attach, single-threaded.
func probeBearerSetup(got map[string]float64, min time.Duration, cfg workload.Config) error {
	cfg.ControlDelay = 0
	sys, err := buildInProcess(cfg)
	if err != nil {
		return err
	}
	defer sys.close()
	reg := sys.regions[0]
	n := 0
	var setupErr error
	attach := func() {
		_, err := reg.Leaf.HandleBearerRequest(core.BearerRequest{
			UE: fmt.Sprintf("probe%07d", n), BS: reg.BSes[n%len(reg.BSes)], Prefix: reg.Prefix, QoS: 1,
		})
		if err != nil {
			setupErr = err
		}
		n++
	}
	got["core.bearer_setup_direct_us"] = timeLoop(min, attach) / 1e3
	got["core.bearer_setup_direct_allocs"] = allocsPer(2000, attach)
	if setupErr != nil {
		return fmt.Errorf("probe: direct bearer setup: %w", setupErr)
	}
	return nil
}

// probeNIB times the event log's append and truncate and a link-state
// flip on the leaf NIB (generation bump plus subscriber fan-out).
func probeNIB(got map[string]float64, min time.Duration, sys *system) {
	log := nib.NewEventLog()
	var appendNs, truncNs time.Duration
	rounds := 0
	for start := time.Now(); time.Since(start) < 2*min; rounds++ {
		t := time.Now()
		var last uint64
		for k := 0; k < 1000; k++ {
			last = log.Append("probe", k)
		}
		appendNs += time.Since(t)
		for id := last - 999; id <= last; id++ {
			log.MarkDone(id)
		}
		t = time.Now()
		log.TruncateThrough(last)
		truncNs += time.Since(t)
	}
	got["nib.eventlog_append_ns"] = float64(appendNs) / float64(rounds*1000)
	got["nib.eventlog_truncate_ns_per_entry"] = float64(truncNs) / float64(rounds*1000)

	leafNIB := sys.regions[0].Leaf.NIB
	key := leafNIB.Links()[0].Key()
	up := false
	got["nib.set_link_up_ns"] = timeLoop(min, func() {
		leafNIB.SetLinkUp(key, up)
		up = !up
	})
	leafNIB.SetLinkUp(key, true)
}

// probesOnly is the -layers mode: every probe for at least a second.
func probesOnly() int {
	got, err := runProbes(time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	for _, name := range names {
		fmt.Printf("  %-40s %14.4f %s\n", name, got[name], units[name])
	}
	return 0
}
