package matrix

import (
	"math"
	"math/cmplx"
)

// Krylov subspace recycling (GCRO-DR style) for sequences of related
// complex solves — the anchor solves of a frequency sweep, where the
// operator A(ω) = R + jωL drifts smoothly from point to point. Each
// solve harvests approximate harmonic-Ritz vectors (the slow,
// smallest-magnitude modes GMRES spends most of its iterations on) from
// its final Arnoldi cycle; the next solve deflates them, so its Krylov
// space only has to resolve what the recycled space does not already
// span. The deflation survives operator changes: the recycled basis U
// is re-projected through the *new* operator at the start of every
// solve (C = A U, re-orthonormalized), which costs dim(U) operator
// applications and is what makes the scheme correct — not merely
// heuristic — for ω-varying systems.

// DefaultRecycleDim is the recycled-subspace cap when RecycleSpace.
// MaxDim is zero: large enough to hold the handful of slow modes of a
// preconditioned extraction solve, small enough that re-projection
// (MaxDim operator applications per solve) stays well below the
// iterations it saves.
const DefaultRecycleDim = 12

// recycleHarvest is the number of fresh harmonic-Ritz vectors harvested
// per solve. New vectors displace the oldest recycled ones once the
// space is full, so the basis tracks the operator as it drifts.
const recycleHarvest = 6

// RecycleSpace carries the deflation basis between related GMRES
// solves. The zero value is ready to use; pass the same instance to a
// sequence of GMRES calls whose operators are related (e.g.
// adjacent frequency points). It is NOT safe for concurrent use — give
// each sweep worker its own space.
type RecycleSpace struct {
	// MaxDim caps the recycled basis dimension (0 = DefaultRecycleDim).
	MaxDim int

	u [][]complex128 // deflation basis, solution space
	// c holds C = A U for the first len(c) basis vectors, orthonormal
	// and paired with u (A u[i] = c[i] exactly). len(c) < len(u) after a
	// harvest: the new columns are projected lazily by the next solve,
	// so consecutive same-operator solves only pay for what changed.
	c [][]complex128
	// cValid reports whether the c prefix matches the current operator;
	// callers invalidate when the operator changes.
	cValid bool
	n      int // operator dimension the basis belongs to
}

// Dim reports the current recycled-basis dimension.
func (rs *RecycleSpace) Dim() int {
	if rs == nil {
		return 0
	}
	return len(rs.u)
}

// Invalidate marks the projected basis C stale. Call it whenever the
// operator or preconditioner of the next solve differs from the last
// one (a sweep calls it once per new frequency); consecutive solves
// against the same operator (multiple right-hand sides) then share one
// re-projection.
func (rs *RecycleSpace) Invalidate() {
	if rs != nil {
		rs.cValid = false
	}
}

// Reset drops the recycled basis entirely.
func (rs *RecycleSpace) Reset() {
	if rs != nil {
		rs.u, rs.c, rs.cValid, rs.n = nil, nil, false, 0
	}
}

func (rs *RecycleSpace) maxDim() int {
	if rs.MaxDim > 0 {
		return rs.MaxDim
	}
	return DefaultRecycleDim
}

// project brings C = A U up to date for the current operator: a full
// rebuild when the operator changed (cValid false), or an incremental
// extension over freshly harvested basis vectors when only the tail is
// missing. Each processed column is MGS-orthonormalized against the
// kept C columns with every update mirrored on U, so A u[i] = c[i]
// holds exactly; numerically dependent columns are dropped. Returns
// the number of operator applications spent.
func (rs *RecycleSpace) project(apply func(dst, x []complex128), n int) int {
	if rs.n != n {
		// Operator dimension changed: the basis is meaningless.
		rs.Reset()
		rs.n = n
		rs.cValid = true
		return 0
	}
	var ud, cd [][]complex128
	pending := rs.u
	if rs.cValid && len(rs.c) <= len(rs.u) {
		ud, cd = rs.u[:len(rs.c)], rs.c
		pending = rs.u[len(rs.c):]
	}
	applies := 0
	w := make([]complex128, n)
	for _, uj := range pending {
		apply(w, uj)
		applies++
		cj := make([]complex128, n)
		copy(cj, w)
		unew := make([]complex128, n)
		copy(unew, uj)
		for i := range cd {
			h := cdotc(cd[i], cj)
			for k := range cj {
				cj[k] -= h * cd[i][k]
			}
			for k := range unew {
				unew[k] -= h * ud[i][k]
			}
		}
		nrm := cnorm(cj)
		if nrm <= 1e-14 {
			continue // dependent direction: drop it
		}
		inv := complex(1/nrm, 0)
		for k := range cj {
			cj[k] *= inv
			unew[k] *= inv
		}
		cd = append(cd, cj)
		ud = append(ud, unew)
	}
	rs.u, rs.c = ud, cd
	rs.cValid = true
	return applies
}

// harvest refreshes the unprojected tail of the recycled basis with
// fresh approximate harmonic-Ritz vectors: the previous pending tail
// (estimates from the same operator, now superseded) is replaced, the
// oldest entries are truncated over MaxDim with the u/c pairing kept
// aligned, and the projected prefix — still valid for the current
// operator — is left untouched, so follow-up solves against the same
// operator deflate for free. The eigenvector estimates are coefficient
// vectors over the Arnoldi basis of the preconditioned operator;
// preApply (the right preconditioner) maps them into solution space so
// the stored U composes with any later preconditioner. h is the
// pristine (pre-Givens) Hessenberg of the final cycle.
func (rs *RecycleSpace) harvest(v [][]complex128, h *CDense, j int, hj1 float64, preApply func(dst, src []complex128)) {
	if rs == nil || j < 2 {
		return
	}
	k := recycleHarvest
	if k > j {
		k = j
	}
	g := harmonicRitzSmallest(h, j, hj1, k)
	if g == nil {
		return
	}
	if rs.cValid && len(rs.c) <= len(rs.u) {
		rs.u = rs.u[:len(rs.c)]
	} else {
		rs.c = nil
	}
	n := len(v[0])
	scratch := make([]complex128, n)
	for _, gc := range g {
		un := make([]complex128, n)
		for i := 0; i < j; i++ {
			gi := gc[i]
			if gi == 0 {
				continue
			}
			for t := range un {
				un[t] += gi * v[i][t]
			}
		}
		if preApply != nil {
			preApply(scratch, un)
			copy(un, scratch)
		}
		nrm := cnorm(un)
		if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
			continue
		}
		inv := complex(1/nrm, 0)
		for t := range un {
			un[t] *= inv
		}
		rs.u = append(rs.u, un)
	}
	if max := rs.maxDim(); len(rs.u) > max {
		drop := len(rs.u) - max
		rs.u = rs.u[drop:]
		if drop < len(rs.c) {
			rs.c = rs.c[drop:]
		} else {
			rs.c = nil
		}
	}
	rs.n = n
}

// harmonicRitzSmallest returns k approximate eigenvectors (length-j
// coefficient vectors over the Arnoldi basis) of the j x j harmonic-Ritz
// matrix H + h²_{j+1,j} H^{-H} e_j e_j^H, for its smallest-magnitude
// eigenvalues — the slow modes worth deflating. The subspace is
// computed by deterministic inverse subspace iteration (coordinate-
// vector start, fixed sweep count), which is exactly the "approximate"
// the recycling literature allows: the deflation only needs a subspace
// that overlaps the slow eigenspace, not eigenpairs to working
// precision. Returns nil when the small systems are singular.
func harmonicRitzSmallest(h *CDense, j int, hj1 float64, k int) [][]complex128 {
	// f = H^{-H} e_j via solving H^H f = e_j; then A_harm = H + h² f e_j^H.
	hm := NewCDense(j, j)
	hh := NewCDense(j, j)
	for r := 0; r < j; r++ {
		for c := 0; c < j; c++ {
			v := h.At(r, c)
			hm.Set(r, c, v)
			hh.Set(c, r, cmplx.Conj(v))
		}
	}
	luH, err := FactorComplexLU(hh)
	if err != nil {
		return nil
	}
	ej := make([]complex128, j)
	ej[j-1] = 1
	f, err := luH.Solve(ej)
	if err != nil {
		return nil
	}
	h2 := complex(hj1*hj1, 0)
	for r := 0; r < j; r++ {
		hm.Add(r, j-1, h2*f[r])
	}
	lu, err := FactorComplexLU(hm)
	if err != nil {
		// Singular harmonic matrix: a zero harmonic Ritz value means the
		// Krylov space already contains a near-null direction; skip the
		// harvest rather than divide by it.
		return nil
	}
	// Inverse subspace iteration: Z <- orth(A_harm^{-1} Z), three sweeps
	// from coordinate vectors.
	z := make([][]complex128, k)
	for i := range z {
		z[i] = make([]complex128, j)
		z[i][i%j] = 1
	}
	for sweep := 0; sweep < 3; sweep++ {
		for i := range z {
			zi, err := lu.Solve(z[i])
			if err != nil {
				return nil
			}
			z[i] = zi
		}
		// MGS orthonormalization.
		for i := range z {
			for p := 0; p < i; p++ {
				d := cdotc(z[p], z[i])
				for t := range z[i] {
					z[i][t] -= d * z[p][t]
				}
			}
			nrm := cnorm(z[i])
			if nrm <= 1e-300 {
				return z[:i]
			}
			inv := complex(1/nrm, 0)
			for t := range z[i] {
				z[i][t] *= inv
			}
		}
	}
	return z
}
