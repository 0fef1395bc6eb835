package fasthenry

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"inductance101/internal/extract"
	"inductance101/internal/geom"
)

// applyPinCase is one compressed operator the matvec pins cover.
type applyPinCase struct {
	name  string
	build func(t testing.TB) (*geom.Layout, []int, Port, [][2]string)
	opt   Options
}

// applyPinCases are the two structures of the pins, each under both
// compressed operators: the 128-wire, 1,024-filament bus of the bus_1k
// benchmark (NW=4, NT=2, 2 µm pitch) and the PlaneNW=16 microstrip.
func applyPinCases() []applyPinCase {
	bus := func(testing.TB) (*geom.Layout, []int, Port, [][2]string) {
		return busLayout(128, 1e-3, 1e-6, 2e-6)
	}
	plane := func(t testing.TB) (*geom.Layout, []int, Port, [][2]string) {
		return microstripOverPlane(t)
	}
	var out []applyPinCase
	for _, m := range []SolveMode{ModeIterative, ModeNested} {
		out = append(out,
			applyPinCase{"bus1k/" + m.String(), bus, Options{NW: 4, NT: 2, Mode: m}},
			applyPinCase{"plane16/" + m.String(), plane, Options{MaxPerSide: 2, PlaneNW: 16, Mode: m}},
		)
	}
	return out
}

// pinOperator builds the case's compressed operator over a private
// kernel cache.
func pinOperator(t testing.TB, c applyPinCase) extract.LOperator {
	t.Helper()
	l, segs, port, shorts := c.build(t)
	opt := c.opt
	opt.Cache = new(extract.KernelCache)
	s, err := NewSolver(l, segs, port, shorts, 20e9, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s.compressedOp()
}

// pinVectors draws the seeded real and complex operands of the pins.
func pinVectors(n int) ([]float64, []complex128) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	xc := make([]complex128, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range xc {
		xc[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x, xc
}

func hashFloats(vs ...float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func hashComplex(vs []complex128) uint64 {
	fs := make([]float64, 0, 2*len(vs))
	for _, v := range vs {
		fs = append(fs, real(v), imag(v))
	}
	return hashFloats(fs...)
}

// TestCompressedApplyPinned pins the bits of both compressed operators'
// matvecs (ApplyTo and ApplyCTo) on seeded vectors. The
// hashes were recorded from the gather/scatter apply that indexed every
// block entry through its element lists; the tree-ordered planar apply
// must reproduce them exactly. Go fuses multiply-adds on arm64 and
// other targets but not on amd64, so the hashes hold on amd64 only.
func TestCompressedApplyPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned on amd64, where Go never fuses multiply-adds")
	}
	want := map[string][2]uint64{
		"bus1k/iterative":   {0x6ead6a0ea4677695, 0x2daf6a3a79bc5a4a},
		"plane16/iterative": {0x71329faa558d30a7, 0x595d5ba18e856895},
		"bus1k/nested":      {0x762118ca2b57fd07, 0x1a507153c8bc0af2},
		"plane16/nested":    {0x1699f1208715e204, 0xd34081d2a2fb4f55},
	}
	for _, c := range applyPinCases() {
		t.Run(c.name, func(t *testing.T) {
			op := pinOperator(t, c)
			n := op.Dim()
			x, xc := pinVectors(n)
			dst := make([]float64, n)
			dstc := make([]complex128, n)
			var got [2]uint64
			op.ApplyTo(dst, x)
			got[0] = hashFloats(dst...)
			op.ApplyCTo(dstc, xc)
			got[1] = hashComplex(dstc)
			if got != want[c.name] {
				t.Errorf("n=%d: ApplyTo/ApplyCTo hashes %s, want %s", n, fmtHashes(got), fmtHashes(want[c.name]))
			}
		})
	}
}

func fmtHashes(h [2]uint64) string {
	return fmt.Sprintf("{%#x, %#x}", h[0], h[1])
}

// BenchmarkCompressedApplyCTo times one complex matvec of each pinned
// operator — the per-iteration cost of every GMRES port solve.
func BenchmarkCompressedApplyCTo(b *testing.B) {
	for _, c := range applyPinCases() {
		b.Run(c.name, func(b *testing.B) {
			op := pinOperator(b, c)
			_, xc := pinVectors(op.Dim())
			dst := make([]complex128, op.Dim())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.ApplyCTo(dst, xc)
			}
		})
	}
}

// TestCompressedApplyAllocs pins the compressed matvecs allocation-free
// once warm: each apply takes its tree-ordered planes from the
// operator's scratch pool.
func TestCompressedApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, c := range applyPinCases() {
		t.Run(c.name, func(t *testing.T) {
			op := pinOperator(t, c)
			n := op.Dim()
			x, xc := pinVectors(n)
			dst := make([]float64, n)
			dstc := make([]complex128, n)
			for name, apply := range map[string]func(){
				"ApplyTo":  func() { op.ApplyTo(dst, x) },
				"ApplyCTo": func() { op.ApplyCTo(dstc, xc) },
			} {
				apply() // warm the scratch pool
				if a := testing.AllocsPerRun(10, apply); a != 0 {
					t.Errorf("%s allocates %v times per call", name, a)
				}
			}
		})
	}
}
