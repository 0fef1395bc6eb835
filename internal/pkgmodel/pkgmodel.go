// Package pkgmodel implements the paper's pad/package parasitic model:
// external power and ground reach the chip through package leads and
// pads, whose inductance significantly affects on-chip behaviour. The
// package planes themselves are assumed ideal (the voltage difference
// across them is a few mV, the paper's own assumption); each supply
// connection is modeled as a series lead inductance plus lead and
// pad-via resistance.
package pkgmodel

import (
	"fmt"

	"inductance101/internal/circuit"
)

// Connection is one pad-plus-lead supply connection.
type Connection struct {
	// LeadR and LeadL are the package lead parasitics.
	LeadR float64
	LeadL float64
	// PadR is the pad plus pad-via resistance.
	PadR float64
}

// WireBond returns typical wire-bond package parasitics: a few nH of
// lead inductance — the reason Ldi/dt noise dominates wire-bonded parts.
func WireBond() Connection {
	return Connection{LeadR: 0.05, LeadL: 3e-9, PadR: 0.02}
}

// FlipChip returns typical flip-chip (C4) parasitics: an order of
// magnitude less inductance than wire bond.
func FlipChip() Connection {
	return Connection{LeadR: 0.01, LeadL: 0.15e-9, PadR: 0.005}
}

// Stamp adds the connection between the external (ideal) supply node and
// the on-chip pad node: external --R_lead--L_lead--R_pad-- pad.
// Returns the inductor index for current probing.
func (c Connection) Stamp(n *circuit.Netlist, prefix, external, pad string) (int, error) {
	if c.LeadR <= 0 || c.PadR <= 0 || c.LeadL < 0 {
		return 0, fmt.Errorf("pkgmodel: non-physical connection %+v", c)
	}
	m1 := prefix + ".m1"
	m2 := prefix + ".m2"
	n.AddR(prefix+".rlead", external, m1, c.LeadR)
	li := n.AddL(prefix+".llead", m1, m2, c.LeadL)
	n.AddR(prefix+".rpad", m2, pad, c.PadR)
	return li, nil
}
