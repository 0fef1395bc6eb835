package sim

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"inductance101/internal/circuit"
)

func TestTranRCStepResponse(t *testing.T) {
	// Step through R into C: v_c(t) = V(1 - exp(-t/RC)).
	n := circuit.New()
	n.AddV("v", "in", "0", circuit.Pulse{V1: 0, V2: 1, Delay: 1e-9, Rise: 1e-14, Width: 1, Fall: 1e-12})
	n.AddR("r", "in", "out", 1000)
	n.AddC("c", "out", "0", 1e-12) // tau = 1ns
	res, err := Tran(n, TranOptions{TStop: 6e-9, TStep: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	v := res.MustV("out")
	const tau = 1e-9
	for k, tm := range res.Times {
		var want float64
		if tm > 1e-9 {
			want = 1 - math.Exp(-(tm-1e-9)/tau)
		}
		if math.Abs(v[k]-want) > 5e-3 {
			t.Fatalf("t=%g: v=%g want %g", tm, v[k], want)
		}
	}
}

func TestTranRLCRinging(t *testing.T) {
	// Series RLC, underdamped: ring frequency = sqrt(1/LC - (R/2L)^2)/2pi.
	R, L, C := 2.0, 2e-9, 0.5e-12
	n := circuit.New()
	n.AddV("v", "in", "0", circuit.Pulse{V1: 0, V2: 1, Delay: 0.2e-9, Rise: 1e-12, Width: 1, Fall: 1e-12})
	n.AddR("r", "in", "m", R)
	n.AddL("l", "m", "out", L)
	n.AddC("c", "out", "0", C)
	res, err := Tran(n, TranOptions{TStop: 4e-9, TStep: 0.5e-12})
	if err != nil {
		t.Fatal(err)
	}
	v := res.MustV("out")
	fd := math.Sqrt(1/(L*C)-math.Pow(R/(2*L), 2)) / (2 * math.Pi)
	got := ringFrequency(res.Times, v, 1, 0.3e-9)
	if got == 0 || math.Abs(got-fd)/fd > 0.03 {
		t.Errorf("ring frequency %g, want %g", got, fd)
	}
	// Inductive overshoot must be present and bounded by 2x.
	ov := Overshoot(v, 1)
	if ov < 0.3 || ov > 1.0 {
		t.Errorf("overshoot = %g, expected pronounced ringing", ov)
	}
}

func TestBackwardEulerDampsRinging(t *testing.T) {
	build := func() *circuit.Netlist {
		n := circuit.New()
		n.AddV("v", "in", "0", circuit.Pulse{V1: 0, V2: 1, Delay: 0.1e-9, Rise: 1e-12, Width: 1, Fall: 1e-12})
		n.AddR("r", "in", "m", 2)
		n.AddL("l", "m", "out", 2e-9)
		n.AddC("c", "out", "0", 0.5e-12)
		return n
	}
	trap, err := Tran(build(), TranOptions{TStop: 3e-9, TStep: 2e-12, Method: Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	be, err := Tran(build(), TranOptions{TStop: 3e-9, TStep: 2e-12, Method: BackwardEuler})
	if err != nil {
		t.Fatal(err)
	}
	ovT := Overshoot(trap.MustV("out"), 1)
	ovB := Overshoot(be.MustV("out"), 1)
	if ovB >= ovT {
		t.Errorf("BE overshoot %g should be below trapezoidal %g", ovB, ovT)
	}
}

func TestTranMutualInductorsEquivalentKGroup(t *testing.T) {
	// Two coupled RL branches feeding caps: simulate with (L, M) stamps
	// and with the equivalent K = L^-1 group; waveforms must match.
	la, lb, m := 2e-9, 3e-9, 1e-9
	det := la*lb - m*m
	k := [][]float64{{lb / det, -m / det}, {-m / det, la / det}}

	mk := func(useK bool) *TranResult {
		n := circuit.New()
		n.AddV("v", "in", "0", circuit.Pulse{V1: 0, V2: 1, Delay: 0.1e-9, Rise: 50e-12, Width: 1, Fall: 50e-12})
		n.AddR("r1", "in", "a", 10)
		var lA, lB int
		if useK {
			lA = n.AddL("la", "a", "oa", 0)
			lB = n.AddL("lb", "a", "ob", 0)
			n.AddKGroup("k", []int{lA, lB}, k)
		} else {
			lA = n.AddL("la", "a", "oa", la)
			lB = n.AddL("lb", "a", "ob", lb)
			n.AddM("m", lA, lB, m)
		}
		n.AddC("ca", "oa", "0", 0.2e-12)
		n.AddC("cb", "ob", "0", 0.3e-12)
		n.AddR("ra", "oa", "0", 500)
		n.AddR("rb", "ob", "0", 500)
		res, err := Tran(n, TranOptions{TStop: 2e-9, TStep: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rl := mk(false)
	rk := mk(true)
	if e := maxErr(rl.MustV("oa"), rk.MustV("oa")); e > 1e-6 {
		t.Errorf("K-group and L/M disagree on oa by %g", e)
	}
	if e := maxErr(rl.MustV("ob"), rk.MustV("ob")); e > 1e-6 {
		t.Errorf("K-group and L/M disagree on ob by %g", e)
	}
}

// switchingInverter is a 1.8 V inverter whose input rises in 50 ps,
// driving 20 fF.
func switchingInverter() *circuit.Netlist {
	n := circuit.New()
	n.AddV("vdd", "vdd", "0", circuit.DC(1.8))
	n.AddV("vin", "in", "0", circuit.Pulse{V1: 0, V2: 1.8, Delay: 0.2e-9, Rise: 50e-12, Width: 2e-9, Fall: 50e-12})
	n.AddInverter("inv", "in", "out", "vdd", "0",
		circuit.TypicalNMOS(4), circuit.TypicalPMOS(4), 2e-15, 4e-15)
	n.AddC("cl", "out", "0", 20e-15)
	return n
}

// crowbarInverter is a 1.8 V inverter whose input falls slowly (300 ps)
// enough that both devices conduct mid-ramp; its supply is source 0.
func crowbarInverter() *circuit.Netlist {
	n := circuit.New()
	n.AddV("vdd", "vdd", "0", circuit.DC(1.8))
	n.AddV("vin", "in", "0", circuit.Pulse{V1: 1.8, V2: 0, Delay: 0.2e-9, Rise: 0.3e-9, Width: 2e-9, Fall: 0.1e-9})
	n.AddInverter("inv", "in", "out", "vdd", "0",
		circuit.TypicalNMOS(8), circuit.TypicalPMOS(8), 2e-15, 4e-15)
	n.AddC("cl", "out", "0", 10e-15)
	return n
}

func TestTranInverterSwitches(t *testing.T) {
	n := switchingInverter()
	vdd := 1.8
	res, err := Tran(n, TranOptions{TStop: 2e-9, TStep: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	v := res.MustV("out")
	if v[0] < vdd*0.95 {
		t.Errorf("inverter initial output %g, want ~vdd", v[0])
	}
	last := v[len(v)-1]
	if last > 0.05*vdd {
		t.Errorf("inverter final output %g, want ~0", last)
	}
	tIn, err := CrossTime(res.Times, res.MustV("in"), vdd/2, true)
	if err != nil {
		t.Fatal(err)
	}
	tOut, err := CrossTime(res.Times, v, vdd/2, false)
	if err != nil {
		t.Fatal(err)
	}
	d := tOut - tIn
	if d <= 0 || d > 0.5e-9 {
		t.Errorf("inverter delay = %g", d)
	}
	if res.NewtonIters == 0 {
		t.Errorf("expected Newton iterations for nonlinear circuit")
	}
}

func TestShortCircuitCurrentExists(t *testing.T) {
	// During the input ramp both devices conduct: the paper's I1. The
	// vdd source current during the transition must exceed the pure
	// charging current needed afterwards.
	n := crowbarInverter()
	const vddIdx = 0
	res, err := Tran(n, TranOptions{TStop: 1.5e-9, TStep: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	iv := branchCurrent(res, n.BranchOfVSource(vddIdx))
	if PeakAbs(iv) < 1e-4 {
		t.Errorf("no supply current during switching: peak %g", PeakAbs(iv))
	}
}

func TestACLowPass(t *testing.T) {
	n := circuit.New()
	vi := n.AddV("v", "in", "0", circuit.DC(0))
	n.AddR("r", "in", "out", 1000)
	n.AddC("c", "out", "0", 1e-12)
	fc := 1 / (2 * math.Pi * 1000 * 1e-12)
	out, err := n.NodeIndex("out")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range logGrid(fc/100, fc*100, 10) {
		x, err := AC(n, 2*math.Pi*f, ACStimulus{VSourceAmps: map[int]complex128{vi: 1}})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / math.Sqrt(1+math.Pow(f/fc, 2))
		if h := cmplx.Abs(x[out]); math.Abs(h-want) > 1e-6 {
			t.Fatalf("f=%g: |H|=%g want %g", f, h, want)
		}
	}
}

func TestInputImpedanceSeriesRL(t *testing.T) {
	n := circuit.New()
	vi := n.AddV("v", "p", "0", circuit.DC(0))
	n.AddR("r", "p", "m", 5)
	n.AddL("l", "m", "0", 2e-9)
	f := 1e9
	z, err := InputImpedance(n, vi, f)
	if err != nil {
		t.Fatal(err)
	}
	wantIm := 2 * math.Pi * f * 2e-9
	if math.Abs(real(z)-5) > 1e-6 || math.Abs(imag(z)-wantIm)/wantIm > 1e-9 {
		t.Errorf("Z = %v, want 5 + j%g", z, wantIm)
	}
}

// operatingPoint returns the DC operating point a transient of n
// starts from.
func operatingPoint(t *testing.T, n *circuit.Netlist) []float64 {
	t.Helper()
	res, err := Tran(n, TranOptions{TStop: 1e-12, TStep: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	return res.States[0]
}

func TestOPResistorNetwork(t *testing.T) {
	n := circuit.New()
	n.AddV("v", "a", "0", circuit.DC(3))
	n.AddR("r1", "a", "b", 100)
	n.AddR("r2", "b", "0", 200)
	x := operatingPoint(t, n)
	b, _ := n.NodeIndex("b")
	if math.Abs(x[b]-2) > 1e-6 {
		t.Errorf("OP node b = %g, want 2", x[b])
	}
}

func TestOPInverterTransferPoints(t *testing.T) {
	// DC sweep endpoints of a symmetric inverter.
	for _, c := range []struct{ vin, wantLo, wantHi float64 }{
		{0, 1.7, 1.81},
		{1.8, -0.01, 0.1},
	} {
		n := circuit.New()
		n.AddV("vdd", "vdd", "0", circuit.DC(1.8))
		n.AddV("vin", "in", "0", circuit.DC(c.vin))
		n.AddInverter("inv", "in", "out", "vdd", "0",
			circuit.TypicalNMOS(1), circuit.TypicalPMOS(1), 0, 0)
		n.AddR("rl", "out", "0", 1e9) // bleed to make DC unique
		x := operatingPoint(t, n)
		out, _ := n.NodeIndex("out")
		if x[out] < c.wantLo || x[out] > c.wantHi {
			t.Errorf("vin=%g: out=%g want in [%g,%g]", c.vin, x[out], c.wantLo, c.wantHi)
		}
	}
}

func TestTranEnergyPassivity(t *testing.T) {
	// Linear passive RLC network driven by a single pulse source: the
	// energy delivered by the source up to any time must be >= energy
	// currently stored in C and L (the rest was dissipated in R).
	n := circuit.New()
	vi := n.AddV("v", "in", "0", circuit.Pulse{V1: 0, V2: 1, Delay: 0.1e-9, Rise: 0.1e-9, Width: 1, Fall: 0.1e-9})
	n.AddR("r1", "in", "a", 10)
	lIdx := n.AddL("l1", "a", "b", 1e-9)
	n.AddC("c1", "b", "0", 0.3e-12)
	n.AddR("r2", "b", "c", 25)
	n.AddC("c2", "c", "0", 0.5e-12)
	res, err := Tran(n, TranOptions{TStop: 2e-9, TStep: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	vin := res.MustV("in")
	isrc := branchCurrent(res, n.BranchOfVSource(vi))
	vb := res.MustV("b")
	vc := res.MustV("c")
	il := branchCurrent(res, n.NumNodes()+n.Inductors[lIdx].Branch)
	delivered := 0.0
	for k := 1; k < len(res.Times); k++ {
		dt := res.Times[k] - res.Times[k-1]
		// Source delivers v * (-ibranch).
		p0 := vin[k-1] * -isrc[k-1]
		p1 := vin[k] * -isrc[k]
		delivered += (p0 + p1) / 2 * dt
		stored := 0.5*0.3e-12*vb[k]*vb[k] + 0.5*0.5e-12*vc[k]*vc[k] + 0.5*1e-9*il[k]*il[k]
		if stored > delivered+1e-15 {
			t.Fatalf("t=%g: stored %g > delivered %g (active circuit!)",
				res.Times[k], stored, delivered)
		}
	}
}

func TestTranOptionValidation(t *testing.T) {
	n := circuit.New()
	n.AddR("r", "a", "0", 1)
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name         string
		tStop, tStep float64
		method       Method
	}{
		{"zero TStop", 0, 1e-12, Trapezoidal},
		{"zero TStep", 1e-9, 0, Trapezoidal},
		{"negative TStep", 1e-9, -1e-12, Trapezoidal},
		{"NaN TStop", nan, 1e-12, Trapezoidal},
		{"+Inf TStop", inf, 1e-12, Trapezoidal},
		{"NaN TStep", 1e-9, nan, Trapezoidal},
		{"+Inf TStep", 1e-9, inf, Trapezoidal},
		{"no step", 1e-12, 3e-12, Trapezoidal},
		{"unknown method", 1e-9, 1e-12, Method(7)},
	} {
		if res, err := Tran(n, TranOptions{TStop: c.tStop, TStep: c.tStep, Method: c.method}); err == nil {
			t.Errorf("%s (TStop %g, TStep %g) accepted: %d points", c.name, c.tStop, c.tStep, len(res.Times))
		}
	}
	// Half a step rounds up to one.
	res, err := Tran(n, TranOptions{TStop: 1e-12, TStep: 2e-12})
	if err != nil || len(res.Times) != 2 {
		t.Errorf("TStop of half a step: %v, want one step", err)
	}
}

func TestSaveEvery(t *testing.T) {
	n := circuit.New()
	n.AddV("v", "in", "0", circuit.DC(1))
	n.AddR("r", "in", "out", 1000)
	n.AddC("c", "out", "0", 1e-12)
	res, err := Tran(n, TranOptions{TStop: 1e-9, TStep: 1e-12, SaveEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) < 90/10 || len(res.Times) > 1000/10+2 {
		t.Errorf("SaveEvery kept %d points", len(res.Times))
	}
}

func TestMeasurements(t *testing.T) {
	times := []float64{0, 1, 2, 3, 4}
	v := []float64{0, 0.25, 0.75, 1.0, 1.0}
	ct, err := CrossTime(times, v, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ct-1.5) > 1e-12 {
		t.Errorf("CrossTime = %g, want 1.5", ct)
	}
	if _, err := CrossTime(times, v, 0.5, false); err == nil {
		t.Errorf("falling crossing should not exist")
	}
	// A diverged waveform has no delay, even where its finite samples
	// would bracket a crossing.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := []float64{0, 0.25, 0.75, bad, 1.0}
		if ct, err := CrossTime(times, w, 0.5, true); err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("CrossTime over a %g sample = %g, %v; want a not-finite error", bad, ct, err)
		}
	}
	if s := Skew([]float64{3, 7, 5}); s != 4 {
		t.Errorf("Skew = %g", s)
	}
	if s := Skew(nil); s != 0 {
		t.Errorf("empty Skew = %g", s)
	}
	if o := Overshoot([]float64{0, 1.3, 0.9}, 1); math.Abs(o-0.3) > 1e-12 {
		t.Errorf("Overshoot = %g", o)
	}
	if got := Integrate([]float64{0, 1, 2}, []float64{0, 2, 0}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Integrate = %g", got)
	}
	if got := PeakAbs([]float64{1, -3, 2}); got != 3 {
		t.Errorf("PeakAbs = %g", got)
	}
}

// branchCurrent returns the waveform of MNA unknown idx (an inductor's
// or voltage source's branch current).
func branchCurrent(r *TranResult, idx int) []float64 {
	out := make([]float64, len(r.Times))
	for k, x := range r.States {
		out[k] = x[idx]
	}
	return out
}

// maxErr is the largest pointwise |a[i]-b[i]| of two equal-length
// waveforms.
func maxErr(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// ringFrequency estimates the oscillation frequency of a ringing
// waveform from the mean spacing of its crossings of vRef after tStart;
// consecutive crossings are half periods. It returns 0 below three
// crossings (no ringing).
func ringFrequency(times, v []float64, vRef, tStart float64) float64 {
	var crossings []float64
	for i := 1; i < len(v); i++ {
		if times[i] < tStart {
			continue
		}
		if (v[i-1] < vRef && v[i] >= vRef) || (v[i-1] > vRef && v[i] <= vRef) {
			dv := v[i] - v[i-1]
			f := 0.0
			if dv != 0 {
				f = (vRef - v[i-1]) / dv
			}
			crossings = append(crossings, times[i-1]+f*(times[i]-times[i-1]))
		}
	}
	if len(crossings) < 3 {
		return 0
	}
	span := crossings[len(crossings)-1] - crossings[0]
	return float64(len(crossings)-1) / (2 * span)
}
