package grid

import (
	"fmt"
	"math/rand"

	"inductance101/internal/matrix"
)

// Synthetic production-scale power grids. BuildPowerGrid's netlist path
// tops out around 10^4 unknowns: node names are strings, stamps go
// through a triplet map, and the PEEC extraction walks every segment
// pair. Real grids are 10^6-10^8 nodes, so Synthesize takes the other
// route: it generates a multi-layer mesh in index space and stamps the
// SPD nodal conductance system *directly* into CSR form — two passes,
// count then fill, never a triplet list, never a name table. Memory is
// exactly rowPtr + colIdx + val + rhs: ~(16+112+16) bytes per node for
// a 3-layer grid (<= 7 nonzeros per row), about 150 MB at 10^6 nodes.
//
// The regular structure is also what the multigrid solver wants:
// Coarsener hands matrix.NewMG per-layer 3x3 index-space aggregates at
// every level down to the coarse size, so each level shrinks about 9x
// (stripes and shrinking dimensions only leave partial boxes). 3x3 —
// not 2x2 — keeps the smoothed prolongator's support inside one
// aggregate ring. The via couplings between layers still widen the
// coarse stencils (5.5, 21, 78 nonzeros per row on the first three
// levels at 10^5 nodes), but operator complexity stays near 1.65.

// SynthLayer is one metal layer of a synthetic grid.
type SynthLayer struct {
	// Stride is the layer's routing pitch in base-lattice units. Layer
	// strides must be ascending and each must divide the next (M1 fine,
	// M6 coarse); layer 0 commonly has Stride 1.
	Stride int
	// Width is the wire width (m); SheetRho the sheet resistance
	// (ohm/sq). Segment resistance is SheetRho * (Stride*Pitch) / Width.
	Width, SheetRho float64
}

// SynthStripe removes one full line of nodes from a layer — a routing
// blockage / missing stripe. Vertical removes the nodes with x-index
// Index; otherwise the nodes with y-index Index.
type SynthStripe struct {
	Layer, Index int
	Vertical     bool
}

// SynthSpec parameterizes a synthetic multi-layer grid.
type SynthSpec struct {
	// NX, NY are the base-lattice node counts per direction (layer with
	// Stride k has (NX-1)/k+1 x (NY-1)/k+1 nodes).
	NX, NY int
	// Pitch is the base lattice spacing (m).
	Pitch float64
	// Layers lists the metal layers bottom (loads) to top (pads).
	Layers []SynthLayer
	// ViaR is the via resistance between vertically adjacent layers.
	ViaR float64
	// Vdd is the rail voltage pads are tied to.
	Vdd float64
	// PadEvery places a pad at every PadEvery-th node (both directions)
	// of the top layer; PadR is the pad + bump resistance to the rail.
	PadEvery int
	PadR     float64
	// LoadCurrent is the total current (A) drawn from the bottom layer,
	// spread over its nodes; LoadJitter in [0, 1) randomizes the
	// per-node share by +-LoadJitter (deterministic under LoadSeed).
	LoadCurrent float64
	LoadJitter  float64
	LoadSeed    int64
	// DecapPerNode is the decoupling capacitance (F) at every bottom-
	// layer node, the C diagonal of transient analysis. 0 = static only.
	DecapPerNode float64
	// Stripes lists removed node lines (routing blockages).
	Stripes []SynthStripe
}

// DefaultSynthSpec returns a three-layer grid (strides 1/2/4) sized to
// approximately targetNodes nodes, with flip-chip-like pad density and
// a uniform area current draw.
func DefaultSynthSpec(targetNodes int) SynthSpec {
	// nodes ~ nx^2 * (1 + 1/4 + 1/16) = 1.3125 nx^2
	nx := 2
	for nx*nx*21/16 < targetNodes {
		nx++
	}
	return SynthSpec{
		NX: nx, NY: nx,
		Pitch:  20e-6,
		Layers: []SynthLayer{{1, 1e-6, 0.07}, {2, 2e-6, 0.04}, {4, 4e-6, 0.018}},
		ViaR:   0.8,
		Vdd:    1.8,
		// One pad per ~8x8 top-layer nodes (~32x32 base rows).
		PadEvery:     8,
		PadR:         0.05,
		LoadCurrent:  float64(nx*nx) * 0.4e-6, // ~0.4 uA per bottom node
		DecapPerNode: 2e-15,
	}
}

// synthCoord locates a node in its layer's index space.
type synthCoord struct {
	layer, i, j int32
}

// SynthGrid is a generated grid with its assembled conductance system.
type SynthGrid struct {
	Spec SynthSpec
	// N is the node (unknown) count; Sys the SPD nodal conductance
	// system; B the right-hand side (pad pulls to Vdd minus loads);
	// CDiag the nodal decap capacitance (all zero when DecapPerNode is).
	N     int
	Sys   *matrix.CSR
	B     []float64
	CDiag []float64
	// Pads counts pad connections; BottomN the bottom-layer node count.
	Pads    int
	BottomN int

	dims   [][2]int  // per-layer [nx, ny]
	ids    [][]int32 // per-layer node ids, -1 where absent
	coords []synthCoord
	bottom []int32   // ids of bottom-layer nodes
	padB   []float64 // pad contribution to B (fixed in time)
	loadB  []float64 // load contribution to B (scaled by activity)
}

func (s *SynthSpec) validate() error {
	if s.NX < 2 || s.NY < 2 {
		return fmt.Errorf("grid: synthesize: need at least a 2x2 base lattice, got %dx%d", s.NX, s.NY)
	}
	if s.Pitch <= 0 {
		return fmt.Errorf("grid: synthesize: non-positive pitch %g", s.Pitch)
	}
	if len(s.Layers) == 0 {
		return fmt.Errorf("grid: synthesize: no layers")
	}
	prev := 0
	for l, ly := range s.Layers {
		if ly.Stride < 1 {
			return fmt.Errorf("grid: synthesize: layer %d stride %d < 1", l, ly.Stride)
		}
		if ly.Width <= 0 || ly.SheetRho <= 0 {
			return fmt.Errorf("grid: synthesize: layer %d non-positive width/sheet resistance", l)
		}
		if l > 0 {
			if ly.Stride < prev || ly.Stride%prev != 0 {
				return fmt.Errorf("grid: synthesize: layer %d stride %d must be an ascending multiple of layer %d stride %d", l, ly.Stride, l-1, prev)
			}
		}
		prev = ly.Stride
	}
	if len(s.Layers) > 1 && s.ViaR <= 0 {
		return fmt.Errorf("grid: synthesize: non-positive via resistance %g", s.ViaR)
	}
	if s.Vdd <= 0 {
		return fmt.Errorf("grid: synthesize: non-positive Vdd %g", s.Vdd)
	}
	if s.PadEvery < 1 {
		return fmt.Errorf("grid: synthesize: PadEvery %d < 1", s.PadEvery)
	}
	if s.PadR <= 0 {
		return fmt.Errorf("grid: synthesize: non-positive pad resistance %g", s.PadR)
	}
	if s.LoadCurrent < 0 || s.LoadJitter < 0 || s.LoadJitter >= 1 {
		return fmt.Errorf("grid: synthesize: bad load spec (current %g, jitter %g)", s.LoadCurrent, s.LoadJitter)
	}
	if s.DecapPerNode < 0 {
		return fmt.Errorf("grid: synthesize: negative decap %g", s.DecapPerNode)
	}
	for _, st := range s.Stripes {
		if st.Layer < 0 || st.Layer >= len(s.Layers) {
			return fmt.Errorf("grid: synthesize: stripe names layer %d of %d", st.Layer, len(s.Layers))
		}
	}
	return nil
}

func layerDims(spec *SynthSpec, l int) (nx, ny int) {
	s := spec.Layers[l].Stride
	return (spec.NX-1)/s + 1, (spec.NY-1)/s + 1
}

// Synthesize generates the grid and assembles G v = b in one streaming
// pass (count, then fill — no intermediate triplet list). It rejects
// grids with nodes unreachable from every pad: such systems are
// singular and no solver downstream could make sense of them.
func Synthesize(spec SynthSpec) (*SynthGrid, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	nl := len(spec.Layers)
	g := &SynthGrid{Spec: spec, dims: make([][2]int, nl), ids: make([][]int32, nl)}

	// Node enumeration, layer-major then row-major, skipping stripes.
	striped := func(l, i, j int) bool {
		for _, st := range spec.Stripes {
			if st.Layer != l {
				continue
			}
			if st.Vertical && j == st.Index {
				return true
			}
			if !st.Vertical && i == st.Index {
				return true
			}
		}
		return false
	}
	n := 0
	for l := 0; l < nl; l++ {
		nx, ny := layerDims(&spec, l)
		g.dims[l] = [2]int{nx, ny}
		id := make([]int32, nx*ny)
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				if striped(l, i, j) {
					id[i*nx+j] = -1
					continue
				}
				id[i*nx+j] = int32(n)
				n++
			}
		}
		g.ids[l] = id
	}
	if n == 0 {
		return nil, fmt.Errorf("grid: synthesize: stripes removed every node")
	}
	g.N = n
	g.coords = make([]synthCoord, n)
	for l := 0; l < nl; l++ {
		nx, ny := g.dims[l][0], g.dims[l][1]
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				if id := g.ids[l][i*nx+j]; id >= 0 {
					g.coords[id] = synthCoord{int32(l), int32(i), int32(j)}
				}
			}
		}
	}
	g.bottom = make([]int32, 0, g.dims[0][0]*g.dims[0][1])
	for _, id := range g.ids[0] {
		if id >= 0 {
			g.bottom = append(g.bottom, id)
		}
	}
	g.BottomN = len(g.bottom)
	if g.BottomN == 0 {
		return nil, fmt.Errorf("grid: synthesize: stripes removed the whole bottom (load) layer")
	}

	// neighbors yields each node's conductance edges in a fixed order:
	// in-layer west/east/north/south, via down, via up. Returns the
	// neighbor id (or -1) and the edge conductance.
	top := nl - 1
	segG := make([]float64, nl)
	for l, ly := range spec.Layers {
		segG[l] = ly.Width / (ly.SheetRho * float64(ly.Stride) * spec.Pitch)
	}
	viaG := 0.0
	if nl > 1 {
		viaG = 1 / spec.ViaR
	}
	nodeAt := func(l, i, j int) int32 {
		nx, ny := g.dims[l][0], g.dims[l][1]
		if i < 0 || i >= ny || j < 0 || j >= nx {
			return -1
		}
		return g.ids[l][i*nx+j]
	}
	neighbors := func(c synthCoord, fn func(other int32, cond float64)) {
		l, i, j := int(c.layer), int(c.i), int(c.j)
		fn(nodeAt(l, i, j-1), segG[l])
		fn(nodeAt(l, i, j+1), segG[l])
		fn(nodeAt(l, i-1, j), segG[l])
		fn(nodeAt(l, i+1, j), segG[l])
		stride := spec.Layers[l].Stride
		if l > 0 {
			// Via down: the base position always lands on a lower-layer
			// node because strides divide.
			r := stride / spec.Layers[l-1].Stride
			fn(nodeAt(l-1, i*r, j*r), viaG)
		}
		if l < top {
			r := spec.Layers[l+1].Stride / stride
			if i%r == 0 && j%r == 0 {
				fn(nodeAt(l+1, i/r, j/r), viaG)
			}
		}
	}
	isPad := func(c synthCoord) bool {
		if int(c.layer) != top {
			return false
		}
		return int(c.i)%spec.PadEvery == 0 && int(c.j)%spec.PadEvery == 0
	}

	// Pass 1: per-row nonzero counts (diagonal + present neighbors).
	rowPtr := make([]int, n+1)
	for id := 0; id < n; id++ {
		cnt := 1
		neighbors(g.coords[id], func(o int32, _ float64) {
			if o >= 0 {
				cnt++
			}
		})
		rowPtr[id+1] = rowPtr[id] + cnt
	}

	// Pass 2: fill, insertion-sorting each row's <= 7 entries by column.
	colIdx := make([]int, rowPtr[n])
	val := make([]float64, rowPtr[n])
	g.B = make([]float64, n)
	g.CDiag = make([]float64, n)
	g.padB = make([]float64, n)
	g.loadB = make([]float64, n)
	padG := 1 / spec.PadR
	for id := 0; id < n; id++ {
		c := g.coords[id]
		base := rowPtr[id]
		cols := colIdx[base:base]
		vals := val[base:base]
		diag := 0.0
		neighbors(c, func(o int32, cond float64) {
			if o < 0 {
				return
			}
			diag += cond
			cols = append(cols, int(o))
			vals = append(vals, -cond)
		})
		if isPad(c) {
			diag += padG
			g.B[id] += padG * spec.Vdd
			g.padB[id] += padG * spec.Vdd
			g.Pads++
		}
		cols = append(cols, id)
		vals = append(vals, 0) // placeholder; diagonal value set after sort
		for k := 1; k < len(cols); k++ {
			cc, vv := cols[k], vals[k]
			m := k - 1
			for m >= 0 && cols[m] > cc {
				cols[m+1], vals[m+1] = cols[m], vals[m]
				m--
			}
			cols[m+1], vals[m+1] = cc, vv
		}
		for k, cc := range cols {
			if cc == id {
				vals[k] = diag
			}
		}
	}
	if g.Pads == 0 {
		return nil, fmt.Errorf("grid: synthesize: no pads (PadEvery %d leaves the top layer unconnected)", spec.PadEvery)
	}

	// Loads and decap on the bottom layer.
	if spec.LoadCurrent > 0 {
		per := spec.LoadCurrent / float64(g.BottomN)
		rng := rand.New(rand.NewSource(spec.LoadSeed))
		for _, id := range g.bottom {
			f := 1.0
			if spec.LoadJitter > 0 {
				f = 1 + spec.LoadJitter*(2*rng.Float64()-1)
			}
			g.B[id] -= per * f
			g.loadB[id] -= per * f
		}
	}
	if spec.DecapPerNode > 0 {
		for _, id := range g.bottom {
			g.CDiag[id] = spec.DecapPerNode
		}
	}

	// Singular-island rejection: every node must reach a pad.
	if err := g.checkConnected(isPad); err != nil {
		return nil, err
	}
	g.Sys = matrix.CSRFromParts(n, n, rowPtr, colIdx, val)
	return g, nil
}

// checkConnected union-finds the conductance graph plus a virtual rail
// node collecting the pads, and reports the first region no pad can
// reach — the singular-grid case Synthesize rejects with a clear error
// instead of letting a solver fail obscurely downstream.
func (g *SynthGrid) checkConnected(isPad func(synthCoord) bool) error {
	n := g.N
	parent := make([]int32, n+1) // n = virtual rail
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	rail := int32(n)
	// Undirected edges appear in both rows; west/north/down links cover
	// every edge once.
	for id := 0; id < n; id++ {
		c := g.coords[id]
		l, i, j := int(c.layer), int(c.i), int(c.j)
		nx := g.dims[l][0]
		if j > 0 {
			if o := g.ids[l][i*nx+j-1]; o >= 0 {
				union(int32(id), o)
			}
		}
		if i > 0 {
			if o := g.ids[l][(i-1)*nx+j]; o >= 0 {
				union(int32(id), o)
			}
		}
		if l > 0 {
			r := g.Spec.Layers[l].Stride / g.Spec.Layers[l-1].Stride
			lnx := g.dims[l-1][0]
			if o := g.ids[l-1][(i*r)*lnx+j*r]; o >= 0 {
				union(int32(id), o)
			}
		}
		if isPad(c) {
			union(int32(id), rail)
		}
	}
	root := find(rail)
	orphans := 0
	first := synthCoord{-1, -1, -1}
	for id := 0; id < n; id++ {
		if find(int32(id)) != root {
			if orphans == 0 {
				first = g.coords[id]
			}
			orphans++
		}
	}
	if orphans > 0 {
		return fmt.Errorf("grid: synthesize: singular grid — %d of %d nodes unreachable from any pad (first: layer %d node (%d,%d)); stripes cut the mesh into islands",
			orphans, n, first.layer, first.i, first.j)
	}
	return nil
}

// NNZ returns the assembled system's stored nonzeros.
func (g *SynthGrid) NNZ() int { return g.Sys.NNZ() }

// Layers returns the layer count.
func (g *SynthGrid) Layers() int { return len(g.Spec.Layers) }

// CenterBottomNode returns the bottom-layer node nearest the grid
// center — the canonical burst site for transient runs.
func (g *SynthGrid) CenterBottomNode() int {
	nx, ny := g.dims[0][0], g.dims[0][1]
	bestID, bestD := int32(-1), int64(1)<<62
	for _, id := range g.bottom {
		c := g.coords[id]
		di, dj := int64(int(c.i)-ny/2), int64(int(c.j)-nx/2)
		if d := di*di + dj*dj; d < bestD {
			bestD, bestID = d, id
		}
	}
	return int(bestID)
}

// WorstDrop scans the bottom (load) layer for the largest drop below
// Vdd in the solution x.
func (g *SynthGrid) WorstDrop(x []float64) float64 {
	worst := 0.0
	for _, id := range g.bottom {
		if d := g.Spec.Vdd - x[id]; d > worst {
			worst = d
		}
	}
	return worst
}

// Coarsener returns a fresh geometric coarsener for this grid: per
// layer, 3x3 index-space aggregation at every level, compacted in
// first-appearance order so stripes and shrinking dimensions are
// handled uniformly. Each returned value is independent and single-use
// (matrix.NewMG consumes it); concurrent hierarchy builds must each
// call Coarsener again.
func (g *SynthGrid) Coarsener() matrix.Coarsener {
	coords := make([]synthCoord, len(g.coords))
	copy(coords, g.coords)
	dims := make([][2]int, len(g.dims))
	copy(dims, g.dims)
	return &synthCoarsener{coords: coords, dims: dims}
}

// synthCoarsener walks the per-layer index-space coarsening. State
// advances one level per Aggregates call.
type synthCoarsener struct {
	coords []synthCoord
	dims   [][2]int
}

func (c *synthCoarsener) Aggregates(level, n int) []int {
	if n != len(c.coords) {
		return nil
	}
	nl := len(c.dims)
	cdims := make([][2]int, nl)
	offsets := make([]int, nl)
	total := 0
	for l := 0; l < nl; l++ {
		cdims[l] = [2]int{(c.dims[l][0] + 2) / 3, (c.dims[l][1] + 2) / 3}
		offsets[l] = total
		total += cdims[l][0] * cdims[l][1]
	}
	cid := make([]int32, total)
	for i := range cid {
		cid[i] = -1
	}
	agg := make([]int, n)
	var newCoords []synthCoord
	next := 0
	for id, co := range c.coords {
		l := int(co.layer)
		ci, cj := int(co.i)/3, int(co.j)/3
		slot := offsets[l] + ci*cdims[l][0] + cj
		if cid[slot] < 0 {
			cid[slot] = int32(next)
			newCoords = append(newCoords, synthCoord{co.layer, int32(ci), int32(cj)})
			next++
		}
		agg[id] = int(cid[slot])
	}
	c.coords, c.dims = newCoords, cdims
	return agg
}

// SolveMG solves the grid's static system with multigrid-preconditioned
// conjugate gradients, installing the geometric coarsener when the
// caller did not bring their own. It returns the node voltages and the
// hierarchy/convergence statistics.
func (g *SynthGrid) SolveMG(opt matrix.MGOptions, solve matrix.MGSolveOptions) ([]float64, matrix.MGStats, error) {
	if opt.Coarsener == nil {
		opt.Coarsener = g.Coarsener()
	}
	mg, err := matrix.NewMG(g.Sys, opt)
	if err != nil {
		return nil, matrix.MGStats{}, err
	}
	return mg.SolvePCG(g.B, solve)
}

// SolveChol solves the static system with the sparse direct Cholesky —
// the oracle multigrid runs are checked against, feasible to a few
// hundred thousand nodes. Returns the voltages and the factor's fill.
func (g *SynthGrid) SolveChol() ([]float64, int, error) {
	ch, err := matrix.FactorSparseCholesky(g.Sys.AsSymmetricCSC())
	if err != nil {
		return nil, 0, fmt.Errorf("grid: synth Cholesky: %w", err)
	}
	x, err := ch.Solve(g.B)
	if err != nil {
		return nil, 0, err
	}
	return x, ch.FactorNNZ(), nil
}

// SolveCG solves the static system with Jacobi-preconditioned CG,
// reporting the iteration count and final residual; a stalled solve is
// an error.
func (g *SynthGrid) SolveCG(opt matrix.PCGOptions) ([]float64, matrix.IterResult, error) {
	pre, err := matrix.JacobiPrecond(g.Sys)
	if err != nil {
		return nil, matrix.IterResult{}, err
	}
	opt.Precond = pre
	x, res, err := matrix.PCG(matrix.CSROp{M: g.Sys}, g.B, opt)
	if err == nil && !res.Converged {
		err = fmt.Errorf("CG did not converge in %d iterations (residual %g)", res.Iters, res.Residual)
	}
	return x, res, err
}

// TranRHS returns the transient right-hand-side closure the MG time
// stepper consumes: pad pulls toward Vdd stay fixed while load draws
// scale with the activity factor at time t (1 = the static draw). The
// destination is fully overwritten, partitioned across workers.
func (g *SynthGrid) TranRHS(activity func(t float64) float64, workers int) func(t float64, dst []float64) {
	return func(t float64, dst []float64) {
		a := activity(t)
		matrix.ParallelRangeWorkers(workers, g.N, 8192, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dst[i] = g.padB[i] + a*g.loadB[i]
			}
		})
	}
}
