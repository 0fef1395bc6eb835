// Package loopmodel implements the paper's §5 loop inductance approach:
// a port is defined at the driving gate, the receiver end is shorted to
// the local ground (inductance extraction is independent of
// capacitance), loop impedance is extracted with the FastHenry-style
// solver over frequency, and a compact ladder circuit (Krauter &
// Mehrotra, DAC 1998) models the frequency dependence of loop R and L.
// The interconnect and load capacitance is then lumped at the receiver
// and the whole thing simulated as an ordinary netlist.
package loopmodel

import (
	"fmt"
	"math"

	"inductance101/internal/circuit"
	"inductance101/internal/fasthenry"
	"inductance101/internal/matrix"
)

// Section is one R parallel-L rung of the ladder.
type Section struct {
	R, L float64
}

// Ladder is the compact frequency-dependent loop model:
// Z(ω) = R0 + jωL0 + Σ_k jωL_k R_k / (R_k + jωL_k).
//
// At low frequency Z → R0 + jω(L0 + ΣL_k) (current takes all paths);
// at high frequency Z → (R0 + ΣR_k) + jωL0 (current crowds into the
// low-inductance path) — exactly the R-up/L-down trend of Fig. 3(b).
type Ladder struct {
	R0, L0   float64
	Sections []Section
}

// Z evaluates the ladder impedance at frequency f (Hz).
func (ld Ladder) Z(f float64) complex128 {
	jw := complex(0, 2*math.Pi*f)
	z := complex(ld.R0, 0) + jw*complex(ld.L0, 0)
	for _, s := range ld.Sections {
		zl := jw * complex(s.L, 0)
		zr := complex(s.R, 0)
		if s.R == 0 || s.L == 0 {
			continue
		}
		z += zl * zr / (zl + zr)
	}
	return z
}

// RL returns the series-equivalent R(f) and L(f) of the ladder.
func (ld Ladder) RL(f float64) (r, l float64) {
	return fasthenry.RL(ld.Z(f), f)
}

// FitTwoPoint fits the single-section ladder (R0, L0, R1, L1) exactly
// through two extracted impedances, the construction of [5] as described
// in the paper's §5. f1 < f2 required.
//
// With a = R1/L1, the two-point data gives the closed form
// a = (R(f2)-R(f1)) / (L(f1)-L(f2)); the remaining parameters follow by
// substitution.
func FitTwoPoint(z1 complex128, f1 float64, z2 complex128, f2 float64) (Ladder, error) {
	if f1 <= 0 || f2 <= f1 {
		return Ladder{}, fmt.Errorf("loopmodel: need 0 < f1 < f2, got %g, %g", f1, f2)
	}
	r1v, l1v := fasthenry.RL(z1, f1)
	r2v, l2v := fasthenry.RL(z2, f2)
	dR := r2v - r1v
	dL := l1v - l2v
	if dR <= 0 || dL <= 0 {
		// No measurable frequency dependence: degenerate single RL.
		return Ladder{R0: r1v, L0: l1v}, nil
	}
	w1 := 2 * math.Pi * f1
	w2 := 2 * math.Pi * f2
	a := dR / dL
	den1 := a*a + w1*w1
	den2 := a*a + w2*w2
	// dR = R1 (w2^2/den2 - w1^2/den1)
	rr := w2*w2/den2 - w1*w1/den1
	if rr <= 0 {
		return Ladder{R0: r1v, L0: l1v}, nil
	}
	rSec := dR / rr
	lSec := rSec / a
	r0 := r1v - rSec*w1*w1/den1
	l0 := l1v - lSec*a*a/den1
	if r0 < 0 {
		r0 = 0
	}
	if l0 < 0 {
		l0 = 0
	}
	return Ladder{R0: r0, L0: l0, Sections: []Section{{R: rSec, L: lSec}}}, nil
}

// FitSections fits an n-section ladder to a full extraction sweep by
// linear least squares: section corner rates a_k = R_k/L_k are pinned
// log-spaced across the sweep, leaving R(ω) and L(ω) linear in the
// unknowns (R0, L0, R_1..R_n). Negative solutions are clamped to zero
// (passive ladders only).
func FitSections(points []fasthenry.Point, n int) (Ladder, error) {
	if len(points) < n+2 {
		return Ladder{}, fmt.Errorf("loopmodel: %d points cannot fit %d sections", len(points), n)
	}
	if n < 1 {
		return Ladder{}, fmt.Errorf("loopmodel: need at least one section")
	}
	fLo := points[0].Freq
	fHi := points[len(points)-1].Freq
	if fLo <= 0 || fHi <= fLo {
		return Ladder{}, fmt.Errorf("loopmodel: bad sweep range")
	}
	corners := make([]float64, n)
	for k := 0; k < n; k++ {
		frac := (float64(k) + 0.5) / float64(n)
		corners[k] = 2 * math.Pi * fLo * math.Pow(fHi/fLo, frac)
	}
	// Rows: for each point, an R equation and a (scaled) L equation.
	// Unknowns: [R0, L0, R_1..R_n].
	// R(w) = R0 + sum R_k w^2/(a_k^2+w^2)
	// L(w) = L0 + sum (R_k/a_k) a_k^2/(a_k^2+w^2)
	// Scale the L rows by a reference rate so both halves have
	// comparable magnitude.
	wRef := 2 * math.Pi * math.Sqrt(fLo*fHi)
	rows := len(points) * 2
	cols := 2 + n
	A := matrix.NewDense(rows, cols)
	b := make([]float64, rows)
	for i, p := range points {
		w := 2 * math.Pi * p.Freq
		// R row.
		A.Set(2*i, 0, 1)
		for k, a := range corners {
			A.Set(2*i, 2+k, w*w/(a*a+w*w))
		}
		b[2*i] = p.R
		// L row scaled by wRef.
		A.Set(2*i+1, 1, wRef)
		for k, a := range corners {
			A.Set(2*i+1, 2+k, wRef/a*(a*a)/(a*a+w*w))
		}
		b[2*i+1] = p.L * wRef
	}
	// Non-negative solve by active-set elimination: solve unconstrained
	// least squares; while any section resistance comes out negative,
	// remove the most negative section's column and re-solve. (A full
	// Lawson–Hanson NNLS is unnecessary for these small, well-scaled
	// systems.)
	active := make([]int, n)
	for k := range active {
		active[k] = k
	}
	for {
		cols := 2 + len(active)
		Aa := matrix.NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			Aa.Set(i, 0, A.At(i, 0))
			Aa.Set(i, 1, A.At(i, 1))
			for j, k := range active {
				Aa.Set(i, 2+j, A.At(i, 2+k))
			}
		}
		x, err := matrix.LeastSquares(Aa, b)
		if err != nil {
			return Ladder{}, fmt.Errorf("loopmodel: fit failed: %w", err)
		}
		worst, worstJ := 0.0, -1
		for j := range active {
			if x[2+j] < worst {
				worst, worstJ = x[2+j], j
			}
		}
		if worstJ >= 0 && len(active) > 1 {
			active = append(active[:worstJ], active[worstJ+1:]...)
			continue
		}
		ld := Ladder{R0: math.Max(x[0], 0), L0: math.Max(x[1], 0)}
		for j, k := range active {
			r := x[2+j]
			if r <= 0 {
				continue
			}
			ld.Sections = append(ld.Sections, Section{R: r, L: r / corners[k]})
		}
		return ld, nil
	}
}

// MaxRelErr evaluates the worst relative error of the ladder against a
// sweep, separately for R and L.
func (ld Ladder) MaxRelErr(points []fasthenry.Point) (errR, errL float64) {
	for _, p := range points {
		r, l := ld.RL(p.Freq)
		if p.R != 0 {
			errR = math.Max(errR, math.Abs(r-p.R)/math.Abs(p.R))
		}
		if p.L != 0 {
			errL = math.Max(errL, math.Abs(l-p.L)/math.Abs(p.L))
		}
	}
	return errR, errL
}

// Stamp adds the ladder between nodes a and b of a netlist, creating
// internal nodes prefixed with prefix. Returns the inductor indices so
// callers can probe currents.
func (ld Ladder) Stamp(n *circuit.Netlist, prefix, a, b string) []int {
	var inductors []int
	cur := a
	next := prefix + ".n0"
	if ld.R0 > 0 {
		n.AddR(prefix+".r0", cur, next, ld.R0)
		cur, next = next, fmt.Sprintf("%s.n%d", prefix, 1)
	}
	nodeCount := 1
	if ld.L0 > 0 {
		target := next
		if len(ld.Sections) == 0 {
			target = b
		}
		inductors = append(inductors, n.AddL(prefix+".l0", cur, target, ld.L0))
		cur = target
		nodeCount++
		next = fmt.Sprintf("%s.n%d", prefix, nodeCount)
	}
	for i, s := range ld.Sections {
		target := next
		if i == len(ld.Sections)-1 {
			target = b
		}
		n.AddR(fmt.Sprintf("%s.rs%d", prefix, i), cur, target, s.R)
		inductors = append(inductors, n.AddL(fmt.Sprintf("%s.ls%d", prefix, i), cur, target, s.L))
		cur = target
		nodeCount++
		next = fmt.Sprintf("%s.n%d", prefix, nodeCount)
	}
	if cur != b {
		// Ladder was fully degenerate (no elements): tie with a tiny R.
		n.AddR(prefix+".rshort", cur, b, 1e-6)
	}
	return inductors
}

// SingleFrequencyRL reduces an extraction at one frequency to a plain
// series R + L pair — the simplest loop netlist of Fig. 3(c).
func SingleFrequencyRL(z complex128, f float64) (r, l float64) {
	return fasthenry.RL(z, f)
}
