package fasthenry

import (
	"math"
	"math/cmplx"
	"testing"

	"inductance101/internal/extract"
	"inductance101/internal/geom"
	"inductance101/internal/mesh"
)

// TestNestedMatchesDense extends the iterative==dense equivalence suite
// to the nested-basis path: GMRES through the H² operator must
// reproduce the dense oracle's port impedance within the documented
// tolerance.
func TestNestedMatchesDense(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*geom.Layout, []int, Port, [][2]string)
		fRef  float64
		opt   Options
	}{
		{"bus8", func() (*geom.Layout, []int, Port, [][2]string) {
			return busLayout(8, 800e-6, 2e-6, 6e-6)
		}, 20e9, Options{NW: 3, NT: 2}},
		{"bus64-wide", func() (*geom.Layout, []int, Port, [][2]string) {
			// Wide enough that distant segment clusters turn into real
			// basis couplings, not just near blocks.
			return busLayout(64, 500e-6, 1e-6, 2.5e-6)
		}, 20e9, Options{NW: 2, NT: 1}},
	}
	freqs := []float64{1e8, 1e9, 5e9, 2e10}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, segs, port, shorts := tc.build()
			optDense := tc.opt
			optDense.Mode = ModeDense
			dense, err := NewSolver(l, segs, port, shorts, tc.fRef, optDense)
			if err != nil {
				t.Fatal(err)
			}
			optNested := tc.opt
			optNested.Mode = ModeNested
			nested, err := NewSolver(l, segs, port, shorts, tc.fRef, optNested)
			if err != nil {
				t.Fatal(err)
			}
			if !nested.OperatorStats().Nested {
				t.Fatal("nested mode built a non-nested operator")
			}
			for _, f := range freqs {
				zd, err := dense.Impedance(f)
				if err != nil {
					t.Fatalf("dense at %g: %v", f, err)
				}
				zn, it, err := nested.impedanceIterative(f, nil, nil)
				if err != nil {
					t.Fatalf("nested at %g: %v", f, err)
				}
				if it <= 0 {
					t.Fatalf("no GMRES iterations reported at %g Hz", f)
				}
				if d := relDiff(zn, zd); d > iterDenseTol {
					t.Errorf("%s at %g Hz: |Zn-Zd|/|Zd| = %.3g > %g (Zn=%v Zd=%v)",
						tc.name, f, d, iterDenseTol, zn, zd)
				}
			}
		})
	}
}

// TestNestedSweepMatchesDense runs the chunked warm-started parallel
// sweep through the nested operator and checks it against the dense
// sweep point by point.
func TestNestedSweepMatchesDense(t *testing.T) {
	l, segs, port, shorts := busLayout(6, 600e-6, 2e-6, 6e-6)
	mk := func(mode SolveMode) *Solver {
		s, err := NewSolver(l, segs, port, shorts, 20e9,
			Options{NW: 3, NT: 2, Mode: mode, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	freqs := LogSpace(1e8, 2e10, 9)
	densePts, err := mk(ModeDense).Sweep(freqs)
	if err != nil {
		t.Fatal(err)
	}
	nestedPts, err := mk(ModeNested).Sweep(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		if nestedPts[i].Iters <= 0 {
			t.Errorf("point %d: no iteration count recorded", i)
		}
		if d := relDiff(nestedPts[i].Z, densePts[i].Z); d > iterDenseTol {
			t.Errorf("point %d (%g Hz): nested/dense mismatch %.3g", i, freqs[i], d)
		}
	}
}

// singularOp is a hand-built operator whose single diagonal block is
// exactly singular at any frequency — the degraded geometry the
// preconditioner must survive.
type singularOp struct {
	n int
	v []float64 // n x n, rank-deficient
}

func (o *singularOp) Dim() int                     { return o.n }
func (o *singularOp) Stats() extract.CompressStats { return extract.CompressStats{N: o.n} }
func (o *singularOp) Diag(i int) float64           { return o.v[i*o.n+i] }
func (o *singularOp) DiagBlocks() []extract.DiagBlock {
	idx := make([]int, o.n)
	for i := range idx {
		idx[i] = i
	}
	return []extract.DiagBlock{{Idx: idx, V: o.v}}
}
func (o *singularOp) ApplyTo(dst, x []float64) {
	for i := 0; i < o.n; i++ {
		s := 0.0
		for j := 0; j < o.n; j++ {
			s += o.v[i*o.n+j] * x[j]
		}
		dst[i] = s
	}
}
func (o *singularOp) ApplyCTo(dst, x []complex128) {
	for i := 0; i < o.n; i++ {
		var s complex128
		for j := 0; j < o.n; j++ {
			s += complex(o.v[i*o.n+j], 0) * x[j]
		}
		dst[i] = s
	}
}
func (o *singularOp) EachUpper(fn func(i, j int, v float64)) {
	for i := 0; i < o.n; i++ {
		for j := i + 1; j < o.n; j++ {
			fn(i, j, o.v[i*o.n+j])
		}
	}
}

// TestSingularPrecondBlockFallback: a cluster block that refuses to
// LU-factor must degrade the preconditioner to its diagonal inverse —
// finite output, no error, no NaN in the sweep — rather than failing
// the solve.
func TestSingularPrecondBlockFallback(t *testing.T) {
	// Zero resistance and a rank-1 inductance block: R + jωL is exactly
	// singular.
	op := &singularOp{n: 2, v: []float64{1, 1, 1, 1}}
	s := &Solver{fils: make([]mesh.Filament, 2)}
	pre := s.buildBlockPrecond(op, 2*math.Pi*1e9, nil)
	if len(pre.blocks) != 1 {
		t.Fatalf("expected 1 block, got %d", len(pre.blocks))
	}
	if pre.blocks[0].lu != nil {
		t.Fatal("singular block factored; test premise broken")
	}
	src := []complex128{1 + 2i, -3i}
	dst := make([]complex128, 2)
	pre.apply(dst, src)
	for i, v := range dst {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			t.Fatalf("fallback produced non-finite dst[%d] = %v", i, v)
		}
	}
	// The diagonal is jω·1 ≠ 0, so the fallback is a true (scaled)
	// inverse, not the identity.
	w := complex(0, 2*math.Pi*1e9)
	for i, v := range dst {
		if d := cmplx.Abs(v - src[i]/w); d > 1e-12*cmplx.Abs(src[i]/w) {
			t.Errorf("dst[%d] = %v, want %v", i, v, src[i]/w)
		}
	}
	// A fully zero block degrades to the identity and must still be
	// finite.
	opz := &singularOp{n: 2, v: []float64{0, 0, 0, 0}}
	prez := s.buildBlockPrecond(opz, 0, nil)
	prez.apply(dst, src)
	for i, v := range dst {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			t.Fatalf("zero-block fallback produced non-finite dst[%d] = %v", i, v)
		}
		if v != src[i] {
			t.Errorf("zero-block fallback dst[%d] = %v, want identity %v", i, v, src[i])
		}
	}
}

// TestAutoNestedThreshold pins the three-way auto policy: dense below
// the iterative threshold, flat ACA between the thresholds, nested
// bases beyond.
func TestAutoNestedThreshold(t *testing.T) {
	at := func(nf int) SolveMode {
		s := &Solver{fils: make([]mesh.Filament, nf)}
		return s.effectiveMode()
	}
	if got := at(AutoIterativeThreshold - 1); got != ModeDense {
		t.Errorf("auto at %d filaments = %v, want dense", AutoIterativeThreshold-1, got)
	}
	if got := at(AutoIterativeThreshold); got != ModeIterative {
		t.Errorf("auto at %d filaments = %v, want iterative", AutoIterativeThreshold, got)
	}
	if got := at(AutoNestedThreshold - 1); got != ModeIterative {
		t.Errorf("auto at %d filaments = %v, want iterative", AutoNestedThreshold-1, got)
	}
	if got := at(AutoNestedThreshold); got != ModeNested {
		t.Errorf("auto at %d filaments = %v, want nested", AutoNestedThreshold, got)
	}
}
