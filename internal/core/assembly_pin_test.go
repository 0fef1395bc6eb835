package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"inductance101/internal/circuit"
	"inductance101/internal/extract"
	"inductance101/internal/grid"
	"inductance101/internal/matrix"
	"inductance101/internal/pkgmodel"
	"inductance101/internal/sim"
)

// TestACSolutionPinned pins the bits of sim.AC's complex state vector on
// the 6×6×3 PEEC(RLC) netlist (seed 1), driven through the clock
// driver's source at three frequencies. gridnoise.txt checks AC only at
// printed precision; this hash catches any change in how the pencil
// G + gmin + jωC is assembled or in the order it sums.
func TestACSolutionPinned(t *testing.T) {
	opt := DefaultCaseOptions()
	opt.Grid.NX, opt.Grid.NY = 6, 6
	opt.ClockLevels = 3
	opt.Seed = 1
	c, err := NewClockCase(opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := grid.BuildPEECNetlist(c.Grid.Layout, c.Par, grid.PEECOptions{Mode: grid.ModeRLC})
	if err != nil {
		t.Fatal(err)
	}
	n := p.Netlist
	if err := c.attachEnvironment(n, true, true, true); err != nil {
		t.Fatal(err)
	}
	drv := len(n.VSources) - 1 // vdrv, added last
	for _, tc := range []struct {
		f    float64
		want uint64
	}{
		{1e8, 0xa7c382b30c013862},
		{1e9, 0x0ac46f5cd9fd4a34},
		{1e10, 0x0e54d57aa3e8b44c},
	} {
		x, err := sim.AC(n, 2*math.Pi*tc.f, sim.ACStimulus{VSourceAmps: map[int]complex128{drv: 1}})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range x {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(real(v)))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(imag(v)))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("f = %g (%d unknowns): AC solution hash %#x, want %#x", tc.f, len(x), got, tc.want)
		}
	}
}

// TestIRDropSparseCholPinned pins the float64 bits of the static IR
// drop grid.IRDropDCSparseChol computes on a 4×4 PEEC(RC) power grid
// with a flip-chip package and a 1.5 mA load at every crossing: the
// sparse DC assembly, the Cholesky's permuted upper triangle and its
// factorization all feed this one number. The drop is a difference of
// nearly equal voltages, so the test also hashes the whole solution of
// the same sparse Cholesky solve.
func TestIRDropSparseCholPinned(t *testing.T) {
	m, err := grid.BuildPowerGrid(grid.StandardLayers(), grid.Spec{
		NX: 4, NY: 4, Pitch: 100e-6, Width: 4e-6, LayerX: 0, LayerY: 1, ViaR: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	par := extract.Extract(m.Layout, extract.Options{MutualWindow: 1e-9, CouplingWindow: 1e-9})
	p, err := grid.BuildPEECNetlist(m.Layout, par, grid.PEECOptions{Mode: grid.ModeRC})
	if err != nil {
		t.Fatal(err)
	}
	n := p.Netlist
	if err := m.AttachPackage(n, pkgmodel.FlipChip(), 1.8); err != nil {
		t.Fatal(err)
	}
	for i := range m.VddX {
		for j := range m.VddX[i] {
			n.AddI("load", m.VddX[i][j], m.GndX[i][j], circuit.DC(1.5e-3))
		}
	}
	drop, err := grid.IRDropDCSparseChol(m, n, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(drop), uint64(0x3f68f50957c80000); got != want {
		t.Errorf("IR drop %g (bits %#x), want bits %#x", drop, got, want)
	}
	g, b, err := circuit.BuildSparseDC(n, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := matrix.FactorSparseCholesky(g.ToCSC())
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	if got, want := h.Sum64(), uint64(0x79563f1c371bffe5); got != want {
		t.Errorf("DC solution (%d nodes) hash %#x, want %#x", len(x), got, want)
	}
}
