// Package delgood satisfies the delete-command layering rule: deletes go
// through southbound.ApplyFlowMod, and a whole-switch flush by predicate
// is not a delete command.
package delgood

import (
	"repro/internal/dataplane"
	"repro/internal/southbound"
)

func deleteOwner(n *dataplane.Network, sw dataplane.DeviceID) error {
	return southbound.ApplyFlowMod(n, sw, &southbound.FlowMod{Command: southbound.FlowDeleteOwner, Owner: "o"})
}

func flush(n *dataplane.Network, sw dataplane.DeviceID) int {
	return n.RemoveRulesIf(sw, func(*dataplane.Rule) bool { return true })
}
