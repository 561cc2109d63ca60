// Package delbad violates the delete-command layering rule: it gives a
// delete command its flow-table meaning itself instead of leaving that to
// southbound.ApplyFlowMod.
package delbad

import "repro/internal/dataplane"

func deleteOwner(n *dataplane.Network, sw dataplane.DeviceID) int {
	return n.RemoveRulesOwner(sw, "o", nil) // want layering
}

var deleteFunc = (*dataplane.Network).RemoveRulesOwner // want layering
