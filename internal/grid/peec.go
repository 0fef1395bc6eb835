package grid

import (
	"fmt"

	"inductance101/internal/circuit"
	"inductance101/internal/extract"
	"inductance101/internal/geom"
	"inductance101/internal/matrix"
)

// PEECMode selects what the netlist builder stamps per segment.
type PEECMode int

// Modes for BuildPEECNetlist: ModeRC stamps resistance and capacitance
// only (the paper's "PEEC (RC)" column); ModeRLC adds partial self and
// mutual inductance (the "PEEC (RLC)" column).
const (
	ModeRC PEECMode = iota
	ModeRLC
)

// PEECOptions configures PEEC netlist assembly.
type PEECOptions struct {
	Mode PEECMode
	// LOverride, when non-nil, replaces the extracted partial
	// inductance matrix — this is how sparsified matrices from
	// internal/sparsify enter the flow. It must be aligned with the
	// parasitics' segment order.
	LOverride *matrix.Dense
	// MutualFloor drops stamped mutuals with |M| below this fraction of
	// the smaller coupled self inductance (0 keeps everything).
	MutualFloor float64
	// KOverride, when non-nil, stamps the inductive part as a single
	// inverse-inductance (K) group over all segments instead of L/M
	// elements — the Devgan et al. circuit element the paper's §4
	// describes, which needs "a special circuit simulator that can
	// handle the K matrix" (internal/sim does, via circuit.KGroup).
	// Mutually exclusive with LOverride.
	KOverride *matrix.Dense
}

// PEECNetlist is the stamped circuit plus bookkeeping for probes.
type PEECNetlist struct {
	Netlist *circuit.Netlist
	Par     *extract.Parasitics
	// SegInductor[i] is the inductor index of segment order i, or -1
	// in RC mode.
	SegInductor []int
	// MutualCount is the number of mutual elements stamped.
	MutualCount int
}

// BuildPEECNetlist stamps the paper's §3 circuit model from extracted
// parasitics into a fresh netlist: per segment an R (plus L in RLC
// mode) between its end nodes with the π-split ground capacitance,
// node-to-node coupling capacitors, mutual inductances between parallel
// segments, and via resistances from the layout.
func BuildPEECNetlist(lay *geom.Layout, par *extract.Parasitics, opt PEECOptions) (*PEECNetlist, error) {
	n := circuit.New()
	out := &PEECNetlist{Netlist: n, Par: par, SegInductor: make([]int, len(par.Segs))}
	lm := par.L
	if opt.LOverride != nil && opt.KOverride != nil {
		return nil, fmt.Errorf("grid: LOverride and KOverride are mutually exclusive")
	}
	if opt.LOverride != nil {
		if opt.LOverride.Rows() != len(par.Segs) {
			return nil, fmt.Errorf("grid: L override size %d, want %d", opt.LOverride.Rows(), len(par.Segs))
		}
		lm = opt.LOverride
	}
	if opt.KOverride != nil && opt.KOverride.Rows() != len(par.Segs) {
		return nil, fmt.Errorf("grid: K override size %d, want %d", opt.KOverride.Rows(), len(par.Segs))
	}
	for i, si := range par.Segs {
		s := &lay.Segments[si]
		name := fmt.Sprintf("seg%d", si)
		out.SegInductor[i] = -1
		switch opt.Mode {
		case ModeRC:
			n.AddR(name+".r", s.NodeA, s.NodeB, par.R[i])
		case ModeRLC:
			mid := name + ".m"
			n.AddR(name+".r", s.NodeA, mid, par.R[i])
			lv := lm.At(i, i)
			if opt.KOverride != nil {
				lv = 0 // branch equations come from the K group below
			}
			out.SegInductor[i] = n.AddL(name+".l", mid, s.NodeB, lv)
		default:
			return nil, fmt.Errorf("grid: unknown PEEC mode %d", opt.Mode)
		}
	}
	if opt.Mode == ModeRLC && opt.KOverride != nil {
		k := opt.KOverride
		rows := make([][]float64, k.Rows())
		for i := range rows {
			rows[i] = append([]float64(nil), k.Row(i)...)
			for j := range rows[i] {
				if i != j && rows[i][j] != 0 {
					out.MutualCount++
				}
			}
		}
		out.MutualCount /= 2
		n.AddKGroup("kgrid", out.SegInductor, rows)
	}
	if opt.Mode == ModeRLC && opt.KOverride == nil {
		for i := 0; i < len(par.Segs); i++ {
			for j := i + 1; j < len(par.Segs); j++ {
				m := lm.At(i, j)
				if m == 0 {
					continue
				}
				if opt.MutualFloor > 0 {
					smaller := lm.At(i, i)
					if lm.At(j, j) < smaller {
						smaller = lm.At(j, j)
					}
					if m < opt.MutualFloor*smaller && m > -opt.MutualFloor*smaller {
						continue
					}
				}
				n.AddM(fmt.Sprintf("m%d_%d", i, j), out.SegInductor[i], out.SegInductor[j], m)
				out.MutualCount++
			}
		}
	}
	// Ground capacitance (π halves) at every node, in the order the
	// segments first reach it, so the netlist is the same on every run.
	seen := make(map[string]bool, len(par.CGround))
	for _, si := range par.Segs {
		s := &lay.Segments[si]
		for _, node := range [2]string{s.NodeA, s.NodeB} {
			if c := par.CGround[node]; c > 0 && !seen[node] {
				seen[node] = true
				n.AddC("cg."+node, node, circuit.Ground, c)
			}
		}
	}
	// Coupling capacitors.
	for k, cc := range par.CCoupling {
		if cc.C > 0 {
			n.AddC(fmt.Sprintf("cc%d", k), cc.NodeA, cc.NodeB, cc.C)
		}
	}
	// Vias as resistors.
	for i := range lay.Vias {
		v := &lay.Vias[i]
		n.AddR(fmt.Sprintf("via%d", i), v.NodeLo, v.NodeHi, v.Resistance)
	}
	return out, nil
}

// Stats reports the element counts of the stamped netlist in the shape
// of the paper's Table 1.
func (p *PEECNetlist) Stats() circuit.Stats {
	return p.Netlist.Stats()
}
