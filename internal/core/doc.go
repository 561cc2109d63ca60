// Package core implements the SoftMoW controller (§3.3): a modular node
// combining the network operating system (NOS — NIB, topology discovery,
// routing, path implementation), the recursive abstraction application
// (RecA — G-switch/G-BS/G-middlebox exposure, parent agent, rule
// translation), and operator applications (UE bearer management, mobility,
// region optimization). Controllers compose into a tree managed by the
// management plane (Hierarchy).
//
// # Rule programming
//
// All multi-rule operations accumulate rules into a per-device batch
// (ruleBatch) and flush it through flushBatch: each device receives its
// rules pipelined behind at most one barrier round trip, devices with
// asynchronous completion (ConnDevice, a child's logicalDevice) are issued
// back to back and joined by a completion callback (fanPerDevice) with no
// goroutine per device, and a failure anywhere rolls every touched device
// back by the operation's exact owner/version before any path record
// becomes visible. DESIGN.md §"Southbound rule programming" describes the
// protocol and why it preserves the fault-injection invariants.
//
// # Package layout
//
//   - controller.go — Controller, NIB/graph cache, device registry, stats
//   - mgmt.go — Hierarchy, the management plane bootstrapping a tree
//   - device.go — Device interface (InstallRules and RemoveRules, the
//     FlowMod verbs), in-process SwitchDevice, and the logicalDevice that
//     translates parent rules into child paths
//   - conndevice.go — ConnDevice, the wire-backed device over southbound
//   - batch.go — ruleBatch, flushBatch, removeOwned, the fan-out join
//   - pathsetup.go — path install/teardown/reroute and rule translation;
//     the path table holds live paths only (DESIGN.md §5.2)
//   - policy.go — middlebox service-policy routing and installation
//   - mobility.go — bearer admission, §5.1 handovers, UE table
//   - repair.go — §6 link/switch failure repair
//   - reconfig.go — §5.3.2 border-group reconfiguration
//   - routes.go, routeopt.go — recursive route resolution and options
//   - reca.go — the child side of recursive abstraction
//   - discovery.go — intra- and cross-region link discovery
//   - invariants.go — runtime self-checks shared with the chaos harness
package core
