package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNodeInterning(t *testing.T) {
	n := New()
	a := n.Node("a")
	if n.Node("a") != a {
		t.Errorf("re-interning changed index")
	}
	if n.Node(Ground) != -1 || n.Node("gnd") != -1 || n.Node("GND") != -1 {
		t.Errorf("ground aliases broken")
	}
	b := n.Node("b")
	if a == b {
		t.Errorf("distinct nodes share index")
	}
	if n.NumNodes() != 2 {
		t.Errorf("NumNodes = %d", n.NumNodes())
	}
	if n.NodeName(a) != "a" {
		t.Errorf("NodeName wrong")
	}
	if _, err := n.NodeIndex("zzz"); err == nil {
		t.Errorf("unknown node should error")
	}
	if i, err := n.NodeIndex("b"); err != nil || i != b {
		t.Errorf("NodeIndex(b) = %d, %v", i, err)
	}
}

func TestAddElementValidation(t *testing.T) {
	n := New()
	for _, f := range []func(){
		func() { n.AddR("r", "a", "b", 0) },
		func() { n.AddR("r", "a", "b", -1) },
		func() { n.AddC("c", "a", "b", -1e-15) },
		func() { n.AddL("l", "a", "b", -1e-9) },
		func() { n.AddM("m", 0, 0, 1e-9) },
		func() { n.Node("") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestBranchNumbering(t *testing.T) {
	n := New()
	l0 := n.AddL("l0", "a", "b", 1e-9)
	v0 := n.AddV("v0", "a", "0", DC(1))
	l1 := n.AddL("l1", "b", "0", 1e-9)
	if got := n.Size() - n.NumNodes(); got != 3 {
		t.Fatalf("branch unknowns = %d, want 3", got)
	}
	// Branch unknowns come after node unknowns and are all distinct.
	set := map[int]bool{
		branchOfInductor(n, l0): true,
		n.BranchOfVSource(v0):   true,
		branchOfInductor(n, l1): true,
	}
	if len(set) != 3 {
		t.Errorf("branch indices collide")
	}
	for k := range set {
		if k < n.NumNodes() || k >= n.Size() {
			t.Errorf("branch index %d out of [nodes, size)", k)
		}
	}
}

// branchOfInductor is the MNA unknown index of inductor li's current.
func branchOfInductor(n *Netlist, li int) int {
	return n.NumNodes() + n.Inductors[li].Branch
}

func TestMNAResistorDivider(t *testing.T) {
	// v -- R1 -- mid -- R2 -- gnd with V=2: static solve G x = b.
	n := New()
	n.AddV("v", "in", "0", DC(2))
	n.AddR("r1", "in", "mid", 1000)
	n.AddR("r2", "mid", "0", 1000)
	m := BuildSparse(n)
	b := make([]float64, m.Size())
	m.RHS(0, b)
	x := solveDense(t, m, b)
	mid, _ := n.NodeIndex("mid")
	if math.Abs(x[mid]-1) > 1e-9 {
		t.Errorf("divider mid = %g, want 1", x[mid])
	}
	// Source current = -2/2000 (flows out of the + terminal through
	// the circuit, so the A->B branch current is negative... it flows
	// B->A inside the source): check magnitude and KCL sign.
	is := x[n.BranchOfVSource(0)]
	if math.Abs(is-(-0.001)) > 1e-9 {
		t.Errorf("source branch current = %g, want -0.001", is)
	}
}

func solveDense(t *testing.T, m *SparseMNA, b []float64) []float64 {
	t.Helper()
	// Tiny Gaussian elimination to keep this package free of solver
	// dependencies in tests.
	n := m.Size()
	g, _ := denseGC(m)
	a := make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			a[i][j] = g.At(i, j)
		}
		a[i][n] = b[i]
	}
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[p][k]) {
				p = i
			}
		}
		a[k], a[p] = a[p], a[k]
		if a[k][k] == 0 {
			t.Fatalf("singular MNA at %d", k)
		}
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			for j := k; j <= n; j++ {
				a[i][j] -= f * a[k][j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := a[i][n]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x
}

func TestMNAInductorDCShort(t *testing.T) {
	// At DC (G-only solve), an inductor is a short: V -- L -- R -- gnd
	// puts the full source voltage across R.
	n := New()
	n.AddV("v", "in", "0", DC(1))
	n.AddL("l", "in", "mid", 5e-9)
	n.AddR("r", "mid", "0", 50)
	m := BuildSparse(n)
	b := make([]float64, m.Size())
	m.RHS(0, b)
	x := solveDense(t, m, b)
	mid, _ := n.NodeIndex("mid")
	if math.Abs(x[mid]-1) > 1e-9 {
		t.Errorf("inductor DC short broken: mid = %g", x[mid])
	}
	il := x[branchOfInductor(n, 0)]
	if math.Abs(il-0.02) > 1e-9 {
		t.Errorf("inductor current = %g, want 0.02", il)
	}
	// C matrix carries -L on the branch diagonal.
	br := branchOfInductor(n, 0)
	if _, c := denseGC(m); c.At(br, br) != -5e-9 {
		t.Errorf("C branch stamp = %g", c.At(br, br))
	}
}

func TestMNAMutualStamp(t *testing.T) {
	n := New()
	la := n.AddL("la", "a", "0", 2e-9)
	lb := n.AddL("lb", "b", "0", 3e-9)
	n.AddM("m", la, lb, 1e-9)
	m := BuildSparse(n)
	ba, bb := branchOfInductor(n, la), branchOfInductor(n, lb)
	_, c := denseGC(m)
	if c.At(ba, bb) != -1e-9 || c.At(bb, ba) != -1e-9 {
		t.Errorf("mutual stamps wrong: %g %g", c.At(ba, bb), c.At(bb, ba))
	}
}

func TestMNAKGroupStamp(t *testing.T) {
	// A KGroup with K = L^-1 must produce branch equations equivalent
	// to the L form: check stamps directly for one inductor, K = 1/L.
	n := New()
	li := n.AddL("l", "a", "0", 0)
	n.AddKGroup("k", []int{li}, [][]float64{{2e8}}) // K = 1/5nH
	m := BuildSparse(n)
	br := branchOfInductor(n, li)
	a, _ := n.NodeIndex("a")
	g, c := denseGC(m)
	if c.At(br, br) != -1 {
		t.Errorf("K branch C stamp = %g, want -1", c.At(br, br))
	}
	if g.At(br, a) != 2e8 {
		t.Errorf("K branch G stamp = %g, want 2e8", g.At(br, a))
	}
	// KCL column stamp still present.
	if g.At(a, br) != 1 {
		t.Errorf("KCL stamp missing")
	}
}

func TestRHSSources(t *testing.T) {
	n := New()
	n.AddI("i", "a", "b", DC(1e-3))
	n.AddV("v", "c", "0", DC(5))
	m := BuildSparse(n)
	b := make([]float64, m.Size())
	m.RHS(0, b)
	a, _ := n.NodeIndex("a")
	bb, _ := n.NodeIndex("b")
	if b[a] != -1e-3 || b[bb] != 1e-3 {
		t.Errorf("ISource RHS wrong: %g %g", b[a], b[bb])
	}
	if b[n.BranchOfVSource(0)] != 5 {
		t.Errorf("VSource RHS wrong")
	}
}

func TestWaveforms(t *testing.T) {
	p := Pulse{V1: 0, V2: 1.8, Delay: 1e-9, Rise: 0.1e-9, Width: 1e-9, Fall: 0.1e-9, Period: 4e-9}
	if p.At(0) != 0 {
		t.Errorf("pulse before delay")
	}
	if math.Abs(p.At(1.05e-9)-0.9) > 1e-9 {
		t.Errorf("pulse mid-rise = %g", p.At(1.05e-9))
	}
	if p.At(1.5e-9) != 1.8 {
		t.Errorf("pulse high = %g", p.At(1.5e-9))
	}
	if math.Abs(p.At(2.15e-9)-0.9) > 1e-9 {
		t.Errorf("pulse mid-fall = %g", p.At(2.15e-9))
	}
	if p.At(3e-9) != 0 {
		t.Errorf("pulse low = %g", p.At(3e-9))
	}
	if p.At(5.5e-9) != 1.8 {
		t.Errorf("pulse periodic repeat = %g", p.At(5.5e-9))
	}

	w := PWL{Times: []float64{0, 1, 2}, Values: []float64{0, 10, 10}}
	if w.At(-1) != 0 || w.At(0.5) != 5 || w.At(3) != 10 {
		t.Errorf("PWL wrong: %g %g %g", w.At(-1), w.At(0.5), w.At(3))
	}

	s := Sine{Offset: 1, Amplitude: 2, Freq: 1, Delay: 0}
	if math.Abs(s.At(0.25)-3) > 1e-12 {
		t.Errorf("sine peak = %g", s.At(0.25))
	}

	sc := Scaled{W: DC(2), K: 3}
	if sc.At(0) != 6 {
		t.Errorf("Scaled broken")
	}
	sh := Shifted{W: p, Dt: 1e-9}
	if sh.At(2.5e-9) != p.At(1.5e-9) {
		t.Errorf("Shifted broken")
	}
}

func TestMOSFETRegions(t *testing.T) {
	p := MOSParams{VT: 0.5, K: 1e-3, Lambda: 0}
	m := &MOSFET{P: p}
	// Cutoff.
	if id, _, _ := m.Eval(1, 0.3, 0); id != 0 {
		t.Errorf("cutoff id = %g", id)
	}
	// Saturation: vgs=1.5, vds=2 > vov=1: id = K/2 * 1 = 5e-4.
	id, gm, gds := m.Eval(2, 1.5, 0)
	if math.Abs(id-5e-4) > 1e-12 {
		t.Errorf("sat id = %g", id)
	}
	if math.Abs(gm-1e-3) > 1e-12 || gds != 0 {
		t.Errorf("sat gm=%g gds=%g", gm, gds)
	}
	// Triode: vds=0.5 < vov=1: id = K(1*0.5 - 0.125) = 3.75e-4.
	id, _, gds = m.Eval(0.5, 1.5, 0)
	if math.Abs(id-3.75e-4) > 1e-12 {
		t.Errorf("triode id = %g", id)
	}
	if math.Abs(gds-0.5e-3) > 1e-12 {
		t.Errorf("triode gds = %g", gds)
	}
}

func TestMOSFETSymmetryAndPMOS(t *testing.T) {
	p := MOSParams{VT: 0.5, K: 1e-3, Lambda: 0.1}
	nm := &MOSFET{P: p}
	// Swapped drain/source must mirror the current.
	idF, _, _ := nm.Eval(1.0, 1.5, 0)
	idR, _, _ := nm.Eval(0, 1.5, 1.0)
	if math.Abs(idF+idR) > 1e-15 {
		t.Errorf("D/S swap asymmetry: %g vs %g", idF, idR)
	}
	pm := &MOSFET{P: p, PMOS: true}
	// PMOS with source at vdd: vd=0.8, vg=0, vs=1.8 conducts with
	// negative drain current (current flows out of the drain node).
	idP, gmP, gdsP := pm.Eval(0.8, 0, 1.8)
	if idP >= 0 {
		t.Errorf("PMOS drain current sign: %g", idP)
	}
	if gmP <= 0 || gdsP <= 0 {
		t.Errorf("PMOS derivatives: gm=%g gds=%g", gmP, gdsP)
	}
}

func TestMOSFETDerivativesNumeric(t *testing.T) {
	// Property: analytic gm/gds match finite differences in all regions
	// and for both polarities.
	f := func(vd8, vg8, vs8 uint8, pmos bool) bool {
		vd := float64(vd8)/255*3 - 0.5
		vg := float64(vg8) / 255 * 2
		vs := float64(vs8)/255*3 - 0.5
		m := &MOSFET{P: MOSParams{VT: 0.45, K: 2e-3, Lambda: 0.05}, PMOS: pmos}
		_, gm, gds := m.Eval(vd, vg, vs)
		const h = 1e-7
		idG1, _, _ := m.Eval(vd, vg+h, vs)
		idG0, _, _ := m.Eval(vd, vg-h, vs)
		idD1, _, _ := m.Eval(vd+h, vg, vs)
		idD0, _, _ := m.Eval(vd-h, vg, vs)
		gmN := (idG1 - idG0) / (2 * h)
		gdsN := (idD1 - idD0) / (2 * h)
		// Skip points straddling a region boundary kink.
		tol := 1e-4 * (math.Abs(gm) + math.Abs(gds) + 1e-6)
		okGm := math.Abs(gm-gmN) < tol || math.Abs(gm-gmN) < 2e-4*2e-3
		okGds := math.Abs(gds-gdsN) < tol || math.Abs(gds-gdsN) < 2e-4*2e-3
		return okGm && okGds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInverterHelper(t *testing.T) {
	n := New()
	n.AddInverter("inv", "in", "out", "vdd", "0", TypicalNMOS(1), TypicalPMOS(1), 1e-15, 2e-15)
	if len(n.MOSFETs) != 2 || len(n.Capacitors) != 2 {
		t.Errorf("inverter element counts: %d fets, %d caps", len(n.MOSFETs), len(n.Capacitors))
	}
	st := n.Stats()
	if st.NumFET != 2 || st.NumC != 2 {
		t.Errorf("stats wrong: %+v", st)
	}
}
