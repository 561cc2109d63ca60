package core_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/northbound"
	"repro/internal/reca"
	"repro/internal/southbound"
)

// parityDevice is one Device implementation under the parity table: how to
// build a rule it accepts, and what its flow tables hold.
type parityDevice struct {
	name string
	dev  core.Device
	// gswitch marks a child-exposed G-switch, which refuses ownerless
	// deletes.
	gswitch bool
	// rule returns the k-th rule of one install: a physical rule for a
	// switch, a virtual classification rule for a G-switch.
	rule func(owner string, version, k int) dataplane.Rule
	// tables lists the owner/version tags of every rule the device's flow
	// tables hold, sorted and deduplicated — a G-switch's virtual rule lands
	// as several physical ones.
	tables func() []string
}

// tags collects the sorted, deduplicated owner/version tags of the rules on
// the given switches.
func tags(net *dataplane.Network, sws ...dataplane.DeviceID) []string {
	var out []string
	for _, id := range sws {
		for _, r := range net.Switch(id).Table.Rules() {
			out = append(out, fmt.Sprintf("%s/v%d", r.Owner, r.Version))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// physicalParityDevices builds the three adapters of a physical switch,
// each on a switch of its own: the in-process SwitchDevice, a ConnDevice
// over a Pipe to a real SwitchAgent, and an unarmed chaos FaultyDevice.
func physicalParityDevices(t *testing.T) []parityDevice {
	net := dataplane.NewNetwork()
	for _, id := range []dataplane.DeviceID{"P1", "P2", "P3"} {
		net.AddSwitch(id)
	}
	agent := southbound.NewSwitchAgent(net, net.Switch("P2"))
	ctrlEnd, devEnd := southbound.Pipe(64)
	go agent.Serve(devEnd)
	conn, err := core.DialDevice(ctrlEnd, "L1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	rule := func(owner string, version, k int) dataplane.Rule {
		return dataplane.Rule{Priority: 10*version + k, Owner: owner, Version: version,
			Match:   dataplane.Match{InPort: dataplane.PortAny, UE: fmt.Sprintf("%s-%d", owner, k), QoS: -1},
			Actions: []dataplane.Action{dataplane.Output(1)}}
	}
	dev := func(name string, d core.Device, sw dataplane.DeviceID) parityDevice {
		return parityDevice{name: name, dev: d, rule: rule, tables: func() []string { return tags(net, sw) }}
	}
	return []parityDevice{
		dev("SwitchDevice", core.NewSwitchDevice(net, net.Switch("P1")), "P1"),
		dev("ConnDevice", conn, "P2"),
		dev("FaultyDevice", &chaos.FaultyDevice{Inner: core.NewSwitchDevice(net, net.Switch("P3")), Plan: &chaos.FaultPlan{}}, "P3"),
	}
}

// parityLeaf bootstraps a leaf whose region has one internal G-BS with two
// constituent attachments, so every virtual classification rule fans out
// onto both access switches and the egress switch. attach hands the leaf
// to a root and returns the root's handle on its G-switch.
func parityLeaf(t *testing.T, name string, attach func(*testing.T, *dataplane.Network, core.LeafSpec) (core.Device, *core.Controller)) parityDevice {
	net := dataplane.NewNetwork()
	sws := []dataplane.DeviceID{"A1", "A2", "E"}
	for _, id := range sws {
		net.AddSwitch(id)
	}
	for _, pair := range [][2]dataplane.DeviceID{{"A1", "E"}, {"A2", "E"}} {
		if _, err := net.Connect(pair[0], pair[1], time.Millisecond, 1000); err != nil {
			t.Fatal(err)
		}
	}
	rp1, _ := net.AddRadioPort("A1", "g1")
	rp2, _ := net.AddRadioPort("A2", "g2")
	if _, err := net.AddEgress("E1", "E", "isp"); err != nil {
		t.Fatal(err)
	}
	dev, leaf := attach(t, net, core.LeafSpec{
		ID:       "L1",
		Switches: sws,
		Radios: []reca.RadioAttachment{
			{ID: "g1", Attach: dataplane.PortRef{Dev: "A1", Port: rp1.ID}},
			{ID: "g2", Attach: dataplane.PortRef{Dev: "A2", Port: rp2.ID}},
		},
		BSGroup: map[dataplane.DeviceID]dataplane.DeviceID{"b1": "g1", "b2": "g2"},
	})
	var gbsPort, egPort dataplane.PortID
	for _, gp := range leaf.Abstraction().GSwitch.Ports {
		if gp.GBS != "" {
			gbsPort = gp.ID
		}
		if gp.External {
			egPort = gp.ID
		}
	}
	if gbsPort == 0 || egPort == 0 {
		t.Fatalf("fixture: gbsPort=%d egPort=%d", gbsPort, egPort)
	}
	return parityDevice{
		name:    name,
		dev:     dev,
		gswitch: true,
		rule: func(owner string, version, k int) dataplane.Rule {
			return dataplane.Rule{Priority: 10*version + k, Owner: owner, Version: version,
				Match:   dataplane.Match{InPort: gbsPort, MatchNoLabel: true, UE: fmt.Sprintf("%s-%d", owner, k), QoS: -1},
				Actions: []dataplane.Action{dataplane.Push(dataplane.Label(40 + version)), dataplane.Output(egPort)}}
		},
		tables: func() []string { return tags(net, sws...) },
	}
}

// logicalParityDevice is an in-process root's logicalDevice on the leaf.
func logicalParityDevice(t *testing.T) parityDevice {
	return parityLeaf(t, "logicalDevice", func(t *testing.T, net *dataplane.Network, spec core.LeafSpec) (core.Device, *core.Controller) {
		h, err := core.NewTwoLevel(net, "root", []core.LeafSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		leaf := h.Leaves[0]
		return h.Root.Device(leaf.GSwitchID()), leaf
	})
}

// wireParityDevice is a root's ConnDevice on the leaf's G-switch, served by
// the leaf's northbound.ParentConn over a Pipe.
func wireParityDevice(t *testing.T) parityDevice {
	return parityLeaf(t, "ParentConn", func(t *testing.T, net *dataplane.Network, spec core.LeafSpec) (core.Device, *core.Controller) {
		leaf := core.NewController(spec.ID, 1, 0)
		if err := core.BootstrapLeaf(net, leaf, spec); err != nil {
			t.Fatal(err)
		}
		rootEnd, leafEnd := southbound.Pipe(64)
		linked := make(chan *northbound.ParentConn, 1)
		go func() {
			p, err := northbound.Connect(leaf, leafEnd)
			if err != nil {
				t.Error(err)
			}
			linked <- p
		}()
		dev, err := northbound.AttachRemoteChild(core.NewController("root", 2, 1), rootEnd)
		if err != nil {
			t.Fatal(err)
		}
		link := <-linked
		t.Cleanup(func() {
			if link != nil {
				link.Close()
			}
			dev.Close()
			dev.WaitStopped()
		})
		return dev, leaf
	})
}

// TestDeviceParity runs the two Device verbs through every implementation
// a controller programs — physical switches in process, over the wire and
// behind the fault wrapper, and a child's G-switch in process and over the
// wire — and requires the same
// flow-table contents from each after every step. A bystander owner must
// survive every owner-scoped delete. Finally the ownerless
// FlowDeleteVersion clears a physical switch's version but is refused by
// the G-switch, which removes nothing.
func TestDeviceParity(t *testing.T) {
	devs := append(physicalParityDevices(t), logicalParityDevice(t), wireParityDevice(t))
	install := func(owner string, version int) func(parityDevice) error {
		return func(pd parityDevice) error {
			return pd.dev.InstallRules([]dataplane.Rule{pd.rule(owner, version, 0), pd.rule(owner, version, 1)})
		}
	}
	remove := func(cmd southbound.FlowModCommand, owner string, version int) func(parityDevice) error {
		return func(pd parityDevice) error { return pd.dev.RemoveRules(cmd, owner, version) }
	}
	steps := []struct {
		name string
		do   func(parityDevice) error
		want []string
	}{
		{"install b v1", install("b", 1), []string{"b/v1"}},
		{"install a v1", install("a", 1), []string{"a/v1", "b/v1"}},
		{"install a v2", install("a", 2), []string{"a/v1", "a/v2", "b/v1"}},
		{"delete a before v2", remove(southbound.FlowDeleteOwnerBefore, "a", 2), []string{"a/v2", "b/v1"}},
		{"install a v3", install("a", 3), []string{"a/v2", "a/v3", "b/v1"}},
		{"delete a version v2", remove(southbound.FlowDeleteOwnerVersion, "a", 2), []string{"a/v3", "b/v1"}},
		{"delete a", remove(southbound.FlowDeleteOwner, "a", 0), []string{"b/v1"}},
	}
	for _, pd := range devs {
		for _, st := range steps {
			if err := st.do(pd); err != nil {
				t.Fatalf("%s: %s: %v", pd.name, st.name, err)
			}
			if got := pd.tables(); !slices.Equal(got, st.want) {
				t.Fatalf("%s: after %s the flow tables hold %v, want %v", pd.name, st.name, got, st.want)
			}
		}
		err := pd.dev.RemoveRules(southbound.FlowDeleteVersion, "", 1)
		want := []string(nil)
		if pd.gswitch {
			if err == nil {
				t.Fatalf("%s: ownerless version delete accepted on a G-switch", pd.name)
			}
			want = []string{"b/v1"}
		} else if err != nil {
			t.Fatalf("%s: ownerless version delete: %v", pd.name, err)
		}
		if got := pd.tables(); !slices.Equal(got, want) {
			t.Fatalf("%s: after the ownerless version delete the flow tables hold %v, want %v", pd.name, got, want)
		}
	}
}
