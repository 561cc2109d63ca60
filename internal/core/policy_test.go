package core

import (
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/interdomain"
	"repro/internal/pathimpl"
	"repro/internal/reca"
	"repro/internal/routing"
)

// policyFixture: S1(gA radio) — S2(firewall, DPI) — S3(egress E1), one leaf.
type policyFixture struct {
	net   *dataplane.Network
	leaf  *Controller
	radio dataplane.PortRef
	fw    *dataplane.Middlebox
	dpi   *dataplane.Middlebox
}

func buildPolicyFixture(t *testing.T) *policyFixture {
	t.Helper()
	net := dataplane.NewNetwork()
	for _, id := range []dataplane.DeviceID{"S1", "S2", "S3"} {
		net.AddSwitch(id)
	}
	for _, pair := range [][2]dataplane.DeviceID{{"S1", "S2"}, {"S2", "S3"}} {
		if _, err := net.Connect(pair[0], pair[1], 5*time.Millisecond, 1000); err != nil {
			t.Fatal(err)
		}
	}
	rp, err := net.AddRadioPort("S1", "gA")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.AddEgress("E1", "S3", "isp")
	if err != nil {
		t.Fatal(err)
	}
	fw := &dataplane.Middlebox{ID: "FW1", Type: dataplane.MBFirewall,
		Attach: dataplane.PortRef{Dev: "S2"}, Capacity: 100, Load: 10}
	if err := net.AttachMiddlebox(fw); err != nil {
		t.Fatal(err)
	}
	dpi := &dataplane.Middlebox{ID: "DPI1", Type: dataplane.MBDPI,
		Attach: dataplane.PortRef{Dev: "S2"}, Capacity: 100, Load: 5}
	if err := net.AttachMiddlebox(dpi); err != nil {
		t.Fatal(err)
	}

	radio := dataplane.PortRef{Dev: "S1", Port: rp.ID}
	h, err := NewTwoLevel(net, "root", []LeafSpec{{
		ID:       "L1",
		Switches: []dataplane.DeviceID{"S1", "S2", "S3"},
		Radios: []reca.RadioAttachment{{
			ID: "gA", Attach: radio, Border: true, Constituents: []dataplane.DeviceID{"gA"},
		}},
		Middleboxes: []reca.MiddleboxAttachment{
			{ID: "FW1", Type: dataplane.MBFirewall, Attach: fw.Attach, Capacity: 100, Load: 10},
			{ID: "DPI1", Type: dataplane.MBDPI, Attach: dpi.Attach, Capacity: 100, Load: 5},
		},
		BSGroup: map[dataplane.DeviceID]dataplane.DeviceID{"b1": "gA"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	leaf := h.Leaves[0]
	leaf.Mode = pathimpl.ModeSwap
	leaf.AddInterdomainRoutes([]interdomain.Route{{
		Prefix: "pfx", Egress: "E1", EgressSwitch: "S3",
		Metrics: interdomain.Metrics{Hops: 5, RTT: 10 * time.Millisecond},
	}}, dataplane.PortRef{Dev: "S3", Port: ep.Port})
	return &policyFixture{net: net, leaf: leaf, radio: radio, fw: fw, dpi: dpi}
}

func TestRouteWithPolicySingleMiddlebox(t *testing.T) {
	f := buildPolicyFixture(t)
	policy := dataplane.ServicePolicy{Name: "fw-only", Chain: []dataplane.MiddleboxType{dataplane.MBFirewall}}
	pr, err := f.leaf.RouteWithPolicy(RouteRequest{From: f.radio, Prefix: "pfx"}, policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Legs) != 2 {
		t.Fatalf("legs = %d", len(pr.Legs))
	}
	if len(pr.Waypoints) != 1 || pr.Waypoints[0] != f.fw.Attach {
		t.Fatalf("waypoints = %v", pr.Waypoints)
	}

	id, err := f.leaf.SetupPolicyPath(dataplane.Match{InPort: dataplane.PortAny, UE: "u1", QoS: -1}, pr)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &dataplane.Packet{UE: "u1", DstPrefix: "pfx"}
	res, err := f.net.Inject("S1", f.radio.Port, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != dataplane.DispEgressed {
		t.Fatalf("disposition = %v (%v)", res.Disposition, pkt)
	}
	if !policy.Satisfied(pkt.MiddleboxesVisited) {
		t.Fatalf("policy not satisfied: visited %v", pkt.MiddleboxesVisited)
	}
	if res.MaxLabelDepth > 1 {
		t.Fatalf("label invariant violated through middlebox: %d", res.MaxLabelDepth)
	}

	// teardown removes the steering
	if err := f.leaf.TeardownPath(id, nil); err != nil {
		t.Fatal(err)
	}
	res2, _ := f.net.Inject("S1", f.radio.Port, &dataplane.Packet{UE: "u1", DstPrefix: "pfx"})
	if res2.Disposition != dataplane.DispPunted {
		t.Fatalf("after teardown: %v", res2.Disposition)
	}
}

func TestRouteWithPolicyChainOrder(t *testing.T) {
	f := buildPolicyFixture(t)
	policy := dataplane.ServicePolicy{Name: "fw-then-dpi",
		Chain: []dataplane.MiddleboxType{dataplane.MBFirewall, dataplane.MBDPI}}
	pr, err := f.leaf.RouteWithPolicy(RouteRequest{From: f.radio, Prefix: "pfx"}, policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Legs) != 3 {
		t.Fatalf("legs = %d", len(pr.Legs))
	}
	if _, err := f.leaf.SetupPolicyPath(dataplane.Match{InPort: dataplane.PortAny, UE: "u2", QoS: -1}, pr); err != nil {
		t.Fatal(err)
	}
	pkt := &dataplane.Packet{UE: "u2", DstPrefix: "pfx"}
	res, err := f.net.Inject("S1", f.radio.Port, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != dataplane.DispEgressed {
		t.Fatalf("disposition = %v (%v)", res.Disposition, pkt)
	}
	if len(pkt.MiddleboxesVisited) != 2 ||
		pkt.MiddleboxesVisited[0] != dataplane.MBFirewall ||
		pkt.MiddleboxesVisited[1] != dataplane.MBDPI {
		t.Fatalf("visit order = %v", pkt.MiddleboxesVisited)
	}
	if !policy.Satisfied(pkt.MiddleboxesVisited) {
		t.Fatal("poset compliance")
	}
}

func TestRouteWithPolicyMissingType(t *testing.T) {
	f := buildPolicyFixture(t)
	policy := dataplane.ServicePolicy{Chain: []dataplane.MiddleboxType{dataplane.MBTranscoder}}
	if _, err := f.leaf.RouteWithPolicy(RouteRequest{From: f.radio, Prefix: "pfx"}, policy); err == nil {
		t.Fatal("missing middlebox type must fail locally (then delegate)")
	}
}

func TestRouteWithPolicyEmptyChain(t *testing.T) {
	f := buildPolicyFixture(t)
	pr, err := f.leaf.RouteWithPolicy(RouteRequest{From: f.radio, Prefix: "pfx"}, dataplane.ServicePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Legs) != 1 {
		t.Fatalf("empty chain should have one leg, got %d", len(pr.Legs))
	}
}

func TestMiddleboxPortsPrefersLeastUtilized(t *testing.T) {
	f := buildPolicyFixture(t)
	// add a second, busier firewall on S1
	fw2 := &dataplane.Middlebox{ID: "FW2", Type: dataplane.MBFirewall,
		Attach: dataplane.PortRef{Dev: "S1"}, Capacity: 100, Load: 90}
	if err := f.net.AttachMiddlebox(fw2); err != nil {
		t.Fatal(err)
	}
	cfg := f.leaf.Config()
	cfg.Middleboxes = append(cfg.Middleboxes, reca.MiddleboxAttachment{
		ID: "FW2", Type: dataplane.MBFirewall, Attach: fw2.Attach, Capacity: 100, Load: 90,
	})
	f.leaf.SetConfig(cfg)
	ports := f.leaf.middleboxPorts(dataplane.MBFirewall)
	if len(ports) != 2 {
		t.Fatalf("ports = %v", ports)
	}
	if ports[0] != f.fw.Attach {
		t.Fatalf("least-utilized instance should come first: %v", ports)
	}
}

func TestPolicyRouteObjectiveLatency(t *testing.T) {
	f := buildPolicyFixture(t)
	pr, err := f.leaf.RouteWithPolicy(RouteRequest{
		From: f.radio, Prefix: "pfx", Objective: routing.MinLatency,
	}, dataplane.ServicePolicy{Chain: []dataplane.MiddleboxType{dataplane.MBFirewall}})
	if err != nil {
		t.Fatal(err)
	}
	if pr.TotalCost.Latency <= 0 {
		t.Fatal("cost accounting")
	}
}
