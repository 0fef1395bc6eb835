package fasthenry

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"inductance101/internal/geom"
)

// iterDenseTol is the documented relative tolerance between the
// iterative and dense port impedances (DESIGN.md §10): ACA block
// tolerance 1e-8 and GMRES residual 1e-10 keep the port-level mismatch
// well under 1e-6.
const iterDenseTol = 1e-6

// busLayout builds an nWires parallel-wire bus (wire 0 is the signal,
// the rest are returns shorted at both ends), the structure the
// iterative path is designed for.
func busLayout(nWires int, length, width, pitch float64) (*geom.Layout, []int, Port, [][2]string) {
	l := geom.NewLayout([]geom.Layer{
		{Name: "M5", Z: 4e-6, Thickness: 1e-6, SheetRho: 0.022, HBelow: 1e-6},
	})
	var segs []int
	names := func(i int) (string, string) {
		if i == 0 {
			return "sig0", "sig1"
		}
		return "g" + string(rune('a'+i)) + "0", "g" + string(rune('a'+i)) + "1"
	}
	for i := 0; i < nWires; i++ {
		a, b := names(i)
		segs = append(segs, l.AddSegment(geom.Segment{
			Layer: 0, Dir: geom.DirX, X0: 0, Y0: float64(i) * pitch,
			Length: length, Width: width, Net: "n", NodeA: a, NodeB: b,
		}))
	}
	var shorts [][2]string
	prevA, prevB := "", ""
	for i := 1; i < nWires; i++ {
		a, b := names(i)
		if prevA != "" {
			shorts = append(shorts, [2]string{prevA, a}, [2]string{prevB, b})
		}
		prevA, prevB = a, b
	}
	// Receiver end: signal shorted to the return bundle.
	ga, _ := names(1)
	shorts = append(shorts, [2]string{"sig1", gbOf(1)})
	return l, segs, Port{Plus: "sig0", Minus: ga}, shorts
}

func gbOf(i int) string { return "g" + string(rune('a'+i)) + "1" }

func relDiff(a, b complex128) float64 {
	d := cmplx.Abs(a - b)
	m := cmplx.Abs(b)
	if m == 0 {
		return d
	}
	return d / m
}

// TestIterativeMatchesDense verifies the tentpole acceptance criterion
// on representative structures: the matrix-free GMRES path reproduces
// the dense oracle's port impedance within the documented tolerance.
func TestIterativeMatchesDense(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*geom.Layout, []int, Port, [][2]string)
		fRef  float64
		opt   Options
	}{
		{"signal-over-return", func() (*geom.Layout, []int, Port, [][2]string) {
			return signalOverReturn(1500e-6, 6e-6, 15e-6)
		}, 10e9, Options{MaxPerSide: 4}},
		{"bus8", func() (*geom.Layout, []int, Port, [][2]string) {
			return busLayout(8, 800e-6, 2e-6, 6e-6)
		}, 20e9, Options{NW: 3, NT: 2}},
		{"bus3-fine", func() (*geom.Layout, []int, Port, [][2]string) {
			return busLayout(3, 400e-6, 4e-6, 10e-6)
		}, 20e9, Options{NW: 4, NT: 3}},
	}
	freqs := []float64{1e8, 1e9, 5e9, 2e10}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, segs, port, shorts := tc.build()
			denseOpt, iterOpt := tc.opt, tc.opt
			denseOpt.Mode, iterOpt.Mode = ModeDense, ModeIterative
			dense, err := NewSolver(l, segs, port, shorts, tc.fRef, denseOpt)
			if err != nil {
				t.Fatal(err)
			}
			iter, err := NewSolver(l, segs, port, shorts, tc.fRef, iterOpt)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range freqs {
				zd, err := dense.Impedance(f)
				if err != nil {
					t.Fatalf("dense at %g: %v", f, err)
				}
				zi, it, err := iter.impedanceIterative(f, nil, nil)
				if err != nil {
					t.Fatalf("iterative at %g: %v", f, err)
				}
				if it <= 0 {
					t.Fatalf("no GMRES iterations reported at %g Hz", f)
				}
				if d := relDiff(zi, zd); d > iterDenseTol {
					t.Errorf("%s at %g Hz: |Zi-Zd|/|Zd| = %.3g > %g (Zi=%v Zd=%v)",
						tc.name, f, d, iterDenseTol, zi, zd)
				}
			}
		})
	}
}

// TestIterativeSweepWarmStarts checks the chunked warm-started parallel
// sweep end to end: values match the dense sweep, iteration counts are
// recorded, warm-started points converge in no more iterations than a
// cold solve needs, and the single warm vector a worker carries holds
// the whole port solution [i; v].
func TestIterativeSweepWarmStarts(t *testing.T) {
	l, segs, port, shorts := busLayout(6, 600e-6, 2e-6, 6e-6)
	mk := func(mode SolveMode) *Solver {
		// NW=4, NT=3: two leaf clusters, so the preconditioner is not
		// the exact inverse and the solves take real iterations.
		s, err := NewSolver(l, segs, port, shorts, 20e9, Options{NW: 4, NT: 3, Mode: mode, Workers: 3})
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
	iter := mk(ModeIterative)
	iterPts, err := iter.Sweep(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		if iterPts[i].Iters <= 0 {
			t.Errorf("point %d: no iteration count recorded", i)
		}
		if d := relDiff(iterPts[i].Z, densePts[i].Z); d > iterDenseTol {
			t.Errorf("point %d (%g Hz): iterative/dense mismatch %.3g", i, freqs[i], d)
		}
	}
	// 9 points over 3 workers => chunks of 3; points 1 and 2 of each
	// chunk start from the worker's one warm vector, the previous
	// point's [i; v]. A warm-started point must not be harder than its
	// own cold solve.
	for i := range freqs {
		if i%3 == 0 {
			continue
		}
		_, cold, err := iter.impedanceIterative(freqs[i], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if iterPts[i].Iters > cold {
			t.Errorf("warm-started point %d used %d iterations, cold solve %d", i, iterPts[i].Iters, cold)
		}
	}
	// Re-seeded with its own solution a point needs no iterations at
	// all, and the solve updates the vector in place.
	var warm []complex128
	if _, _, err := iter.impedanceIterative(freqs[1], &warm, nil); err != nil {
		t.Fatal(err)
	}
	if len(warm) != iter.NumFilaments()+iter.nNodes-1 {
		t.Fatalf("warm vector has %d entries, want nf+nn = %d", len(warm), iter.NumFilaments()+iter.nNodes-1)
	}
	z, again, err := iter.impedanceIterative(freqs[1], &warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Errorf("re-seeded solve used %d iterations, want 0", again)
	}
	if d := relDiff(z, densePts[1].Z); d > iterDenseTol {
		t.Errorf("re-seeded solve mismatch %.3g", d)
	}
}

// TestIterativeSweepSharedOperatorParallel hammers one solver from many
// goroutines (the -race target): the compressed operator, the cached
// Schur pattern with its symbolic factorization, and their sync.Once
// builds must be safe to share across sweep workers — on a bus and on
// a plane, whose Schur complement is a real sparse matrix.
func TestIterativeSweepSharedOperatorParallel(t *testing.T) {
	l, segs, port, shorts := busLayout(5, 500e-6, 2e-6, 6e-6)
	bus, err := NewSolver(l, segs, port, shorts, 20e9, Options{NW: 2, NT: 2, Mode: ModeIterative, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	l, segs, port, shorts = microstripOverPlane(t)
	plane, err := NewSolver(l, segs, port, shorts, 1e10, Options{
		MaxPerSide: 2, PlaneNW: 16, Mode: ModeIterative, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Solver{bus, plane} {
		pts, err := s.Sweep(LogSpace(1e8, 1e10, 8))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].R < pts[i-1].R*(1-1e-9) || pts[i].L > pts[i-1].L*(1+1e-9) {
				t.Errorf("nf=%d: non-monotone R/L at point %d: R %g->%g, L %g->%g",
					s.NumFilaments(), i, pts[i-1].R, pts[i].R, pts[i-1].L, pts[i].L)
			}
		}
	}
}

// TestPrecondApplyAllocs pins the per-iteration preconditioner applies
// allocation-free: block-Jacobi solves into its own scratch, and the
// augmented apply adds only the Schur solve and the Aᵀ scatter on
// scratch of its own.
func TestPrecondApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	l, segs, port, shorts := busLayout(6, 600e-6, 2e-6, 6e-6)
	s, err := NewSolver(l, segs, port, shorts, 20e9, Options{NW: 4, NT: 3, Mode: ModeIterative})
	if err != nil {
		t.Fatal(err)
	}
	omega := 2 * math.Pi * 1e9
	bj := s.buildBlockPrecond(s.compressedOp(), omega, nil)
	nf := s.NumFilaments()
	src, dst := make([]complex128, nf), make([]complex128, nf)
	for i := range src {
		src[i] = complex(float64(i), 1)
	}
	if a := testing.AllocsPerRun(20, func() { bj.apply(dst, src) }); a != 0 {
		t.Errorf("block-Jacobi apply allocates %v times", a)
	}
	aop, pre, err := s.portSystem(omega, nil)
	if err != nil {
		t.Fatal(err)
	}
	asrc, adst := make([]complex128, aop.Dim()), make([]complex128, aop.Dim())
	for i := range asrc {
		asrc[i] = complex(1, float64(i))
	}
	if a := testing.AllocsPerRun(20, func() { pre.apply(adst, asrc) }); a != 0 {
		t.Errorf("augmented preconditioner apply allocates %v times", a)
	}
}

// TestCompressedOperatorMatvecProperty is the satellite property test:
// on randomized buses and grids, the ACA-compressed operator's matvec
// agrees with the dense lp matvec to tolerance, and the implied L stays
// exactly symmetric.
func TestCompressedOperatorMatvecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		nW := 3 + rng.Intn(6)
		length := (300 + 400*rng.Float64()) * 1e-6
		width := (1 + 3*rng.Float64()) * 1e-6
		pitch := width * (2 + 3*rng.Float64())
		l, segs, port, shorts := busLayout(nW, length, width, pitch)
		s, err := NewSolver(l, segs, port, shorts, 20e9, Options{NW: 1 + rng.Intn(3), NT: 1 + rng.Intn(2)})
		if err != nil {
			t.Fatal(err)
		}
		nf := s.NumFilaments()
		op := s.compressedOp()
		if op.Dim() != nf {
			t.Fatalf("operator dim %d, want %d", op.Dim(), nf)
		}
		lp := s.denseLP()
		x := make([]float64, nf)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, nf)
		op.ApplyTo(got, x)
		want := make([]float64, nf)
		var ref float64
		for i := 0; i < nf; i++ {
			var sum float64
			for j := 0; j < nf; j++ {
				sum += lp.At(i, j) * x[j]
			}
			want[i] = sum
			ref += sum * sum
		}
		ref = math.Sqrt(ref)
		var errNorm float64
		for i := range got {
			d := got[i] - want[i]
			errNorm += d * d
		}
		errNorm = math.Sqrt(errNorm)
		if errNorm > 1e-6*ref {
			t.Errorf("trial %d (nf=%d): matvec error %.3g of %.3g", trial, nf, errNorm, ref)
		}
		// Exact symmetry: <e_i, L e_j> must bit-equal <e_j, L e_i>.
		ei := make([]float64, nf)
		col := make([]float64, nf)
		for rep := 0; rep < 8; rep++ {
			i, j := rng.Intn(nf), rng.Intn(nf)
			ei[i] = 1
			op.ApplyTo(col, ei)
			lij := col[j]
			ei[i] = 0
			ei[j] = 1
			op.ApplyTo(col, ei)
			lji := col[i]
			ei[j] = 0
			if math.Float64bits(lij) != math.Float64bits(lji) {
				t.Fatalf("trial %d: L(%d,%d)=%v != L(%d,%d)=%v", trial, i, j, lij, j, i, lji)
			}
		}
	}
}

// TestAutoModeThreshold pins the auto-mode policy: small problems stay
// on the dense oracle (golden CLI outputs depend on it), large ones
// switch to the iterative path.
func TestAutoModeThreshold(t *testing.T) {
	l, segs, port, shorts := signalOverReturn(1000e-6, 2e-6, 6e-6)
	s, err := NewSolver(l, segs, port, shorts, 1e9, Options{NW: 1, NT: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFilaments() >= AutoIterativeThreshold {
		t.Fatalf("test premise broken: %d filaments", s.NumFilaments())
	}
	if got := s.SolveModeInUse(); got != ModeDense {
		t.Errorf("auto mode on %d filaments resolved to %v, want dense", s.NumFilaments(), got)
	}
	s, err = NewSolver(l, segs, port, shorts, 1e9, Options{NW: 1, NT: 1, Mode: ModeIterative})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SolveModeInUse(); got != ModeIterative {
		t.Errorf("explicit iterative resolved to %v", got)
	}
}

func TestParseSolveMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SolveMode
		ok   bool
	}{
		{"auto", ModeAuto, true},
		{"dense", ModeDense, true},
		{"iterative", ModeIterative, true},
		{"nested", ModeNested, true},
		{"gmres", ModeAuto, false},
		{"", ModeAuto, false},
	} {
		got, err := ParseSolveMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSolveMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("String round-trip: %v -> %q", got, got.String())
		}
	}
}

func TestLogSpaceDegenerate(t *testing.T) {
	for _, tc := range []struct {
		f0, f1 float64
		n      int
	}{
		{1e9, 1e10, 1},
		{1e9, 1e10, 0},
		{1e9, 1e10, -3},
		{5e9, 5e9, 7},
		{5e9, 5e9, 1},
	} {
		got := LogSpace(tc.f0, tc.f1, tc.n)
		if len(got) != 1 || got[0] != tc.f0 {
			t.Errorf("LogSpace(%g, %g, %d) = %v, want [%g]", tc.f0, tc.f1, tc.n, got, tc.f0)
		}
	}
	// The regular path is unchanged: endpoints exact, strictly rising.
	got := LogSpace(1e8, 1e10, 5)
	if len(got) != 5 || got[0] != 1e8 || got[4] != 1e10 {
		t.Fatalf("LogSpace(1e8,1e10,5) = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
}
