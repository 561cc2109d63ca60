// Package chaos is a randomized fault-injection harness for the SoftMoW
// reproduction: it builds a multi-region two-level controller hierarchy
// over a ring of diamond regions, then drives it through an interleaved
// stream of failure events — link failures and restores, flaps, silent
// port-downs, rule-install faults (including faults landing mid-way
// through a batched flush), controller failovers with write-ahead redo
// (internal/ha), and §5.3.2 border-group reconfigurations — while
// checking global invariants after every event:
//
//  1. no orphaned rules: every physical flow rule belongs to an active
//     path record (matching version) at some controller in the hierarchy;
//  2. NIB/data-plane link consistency: intra-region links are mirrored in
//     the owning leaf's NIB and cross-region links in the root's NIB, with
//     Up flags matching the physical state;
//  3. end-to-end reachability: every active bearer's traffic egresses at
//     the expected peering point with at most one label per physical
//     packet (ModeSwap, §4.3), and every broken bearer's traffic punts
//     (never blackholes or loops);
//  4. single mastership: each controller's HA pair has exactly one master.
//
// All randomness derives from one seed (simnet.RNG), every iteration order
// is sorted, and the data plane is driven in-process on one goroutine, so
// a printed seed replays the identical event sequence. For the same
// reason the harness sets Controller.SerialSouthbound on the root, whose
// children would otherwise be programmed concurrently: devices are
// flushed in deterministic order so the positional FaultPlan injector and
// the byte-compared event log are reproducible. The leaves need no such
// setting — their in-process switches are always programmed serially.
//
// Entry points: New builds the WAN and its controller hierarchy from
// Options, Harness.Run drives the event stream, and cmd/chaos wraps both
// behind flags (-seed, -events, -regions, -metrics).
package chaos
