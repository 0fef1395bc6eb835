package fasthenry

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"inductance101/internal/geom"
)

// twoSolveApply is the constraint preconditioner applied with two
// block-Jacobi solves, D⁻¹ r_i and then D⁻¹ (r_i + ρAᵀ y_v) — the
// oracle of augPrecond.apply, which replaces the second solve by
// t + ρ W y_v on the blocks that keep W.
func twoSolveApply(t *testing.T, p *augPrecond, dst, src []complex128) {
	t.Helper()
	nf := len(p.inc)
	u := make([]complex128, nf)
	rv := append([]complex128(nil), src[nf:]...)
	p.bj.apply(u, src[:nf])
	for f, r := range p.inc {
		if r[0] >= 0 {
			rv[r[0]] -= p.rho * u[f]
		}
		if r[1] >= 0 {
			rv[r[1]] += p.rho * u[f]
		}
	}
	yv := dst[nf:]
	if err := p.schur.SolveTo(yv, rv, make([]complex128, len(rv))); err != nil {
		t.Fatal(err)
	}
	inv := 1 / (p.rho * p.rho)
	for k := range yv {
		yv[k] *= inv
	}
	copy(u, src[:nf])
	for f, r := range p.inc {
		if r[0] >= 0 {
			u[f] += p.rho * yv[r[0]]
		}
		if r[1] >= 0 {
			u[f] -= p.rho * yv[r[1]]
		}
	}
	p.bj.apply(dst[:nf], u)
}

// relErr2 returns ‖got − want‖₂ / ‖want‖₂.
func relErr2(got, want []complex128) float64 {
	var d, n float64
	for i := range want {
		e := cmplx.Abs(got[i] - want[i])
		a := cmplx.Abs(want[i])
		d += e * e
		n += a * a
	}
	return math.Sqrt(d / n)
}

// TestAugPrecondMatchesTwoSolves checks the one-solve constraint
// preconditioner against the two-solve oracle to 1e-12 relative on
// seeded operands, at the bottom and top of the band: on the
// 1,024-filament bus, where every block keeps W; on the PlaneNW=16
// microstrip, where none does; and on that bus with its first block
// forced onto the diagonal fallback.
func TestAugPrecondMatchesTwoSolves(t *testing.T) {
	bus := func(t *testing.T) *Solver {
		l, segs, port, shorts := busLayout(128, 1e-3, 1e-6, 2e-6)
		s, err := NewSolver(l, segs, port, shorts, 20e9, Options{NW: 4, NT: 2, Mode: ModeIterative})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plane := func(t *testing.T) *Solver {
		l, segs, port, shorts := microstripOverPlane(t)
		s, err := NewSolver(l, segs, port, shorts, 20e9, Options{MaxPerSide: 2, PlaneNW: 16, Mode: ModeIterative})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name     string
		solver   func(*testing.T) *Solver
		fallback bool // force block 0 onto its diagonal inverse
		wantW    func(bi int) bool
	}{
		{"bus1k", bus, false, func(int) bool { return true }},
		{"plane16", plane, false, func(int) bool { return false }},
		{"bus1k-dinv", bus, true, func(bi int) bool { return bi != 0 }},
	}
	for _, c := range cases {
		s := c.solver(t)
		op := s.compressedOp()
		plan, err := s.schur()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []float64{1e8, 2e10} {
			t.Run(fmt.Sprintf("%s/%gHz", c.name, f), func(t *testing.T) {
				omega := 2 * math.Pi * f
				bj := s.buildBlockPrecond(op, omega, nil)
				if c.fallback {
					b, d := &bj.blocks[0], op.DiagBlocks()[0]
					n := len(d.Idx)
					b.lu, b.dinv = nil, make([]complex128, n)
					for a, fi := range d.Idx {
						b.dinv[a] = 1 / complex(s.fils[fi].R, omega*d.V[a*n+a])
					}
				}
				pre, err := s.newAugPrecond(plan, bj, complex(s.kclScale(), 0))
				if err != nil {
					t.Fatal(err)
				}
				for bi := range bj.blocks {
					if got := bj.blocks[bi].w != nil; got != c.wantW(bi) {
						b := &plan.blocks[bi]
						t.Fatalf("block %d (%d filaments, %d nodes) keeps W: %v, want %v",
							bi, len(b.ends), len(b.nodes), got, !got)
					}
				}
				rng := rand.New(rand.NewSource(5))
				dim := len(s.fils) + s.nNodes - 1
				for trial := 0; trial < 3; trial++ {
					src := make([]complex128, dim)
					for i := range src {
						src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
					}
					got, want := make([]complex128, dim), make([]complex128, dim)
					pre.apply(got, src)
					twoSolveApply(t, pre, want, src)
					if e := relErr2(got, want); e > 1e-12 {
						t.Errorf("trial %d: one-solve apply differs from the two-solve oracle by %.2e relative", trial, e)
					}
				}
			})
		}
	}
}

// m6Bus is the loop bus of the bus_8k benchmark with its wires in
// order: nWires wires 1 µm wide and 1 mm long at a 2 µm pitch on M6,
// the returns tied together at both ends and to the signal at the far
// end.
func m6Bus(nWires int) (*geom.Layout, []int, Port, [][2]string) {
	lay := geom.NewLayout([]geom.Layer{
		{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
	})
	var segs []int
	for w := 0; w < nWires; w++ {
		net, a, b := "GND", fmt.Sprintf("g%d_0", w), fmt.Sprintf("g%d_1", w)
		if w == 0 {
			net, a, b = "sig", "s0", "s1"
		}
		segs = append(segs, lay.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: float64(w) * 2e-6,
			Length: 1e-3, Width: 1e-6, Net: net, NodeA: a, NodeB: b,
		}))
	}
	var shorts [][2]string
	for w := 2; w < nWires; w++ {
		shorts = append(shorts,
			[2]string{fmt.Sprintf("g%d_0", w-1), fmt.Sprintf("g%d_0", w)},
			[2]string{fmt.Sprintf("g%d_1", w-1), fmt.Sprintf("g%d_1", w)})
	}
	shorts = append(shorts, [2]string{"s1", "g1_1"})
	return lay, segs, Port{Plus: "s0", Minus: "g1_0"}, shorts
}

// TestBus8kPortSolveIterations: the cold port solve of the
// 8,192-filament bus at 20 GHz (the bus_8k benchmark's top point, on
// the nested operator) converges in 57 ± 1 GMRES iterations, the count
// of the two-solve preconditioner.
func TestBus8kPortSolveIterations(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the 8k-filament solve takes a second")
	}
	l, segs, port, shorts := m6Bus(1024)
	s, err := NewSolver(l, segs, port, shorts, 2e10, Options{NW: 4, NT: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFilaments() != 8192 || s.SolveModeInUse() != ModeNested {
		t.Fatalf("%d filaments on %v, want 8192 on nested", s.NumFilaments(), s.SolveModeInUse())
	}
	_, it, err := s.impedanceIterative(2e10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if it < 56 || it > 58 {
		t.Errorf("cold 20 GHz port solve took %d GMRES iterations, want 57 ± 1", it)
	}
}
