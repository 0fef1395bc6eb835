package mor

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"inductance101/internal/circuit"
	"inductance101/internal/sim"
)

// rlcLine builds an n-section RLC ladder (distributed interconnect)
// driven by a current injection at "in" and observed at "out".
func rlcLine(n int) (*circuit.Netlist, int, int) {
	nl := circuit.New()
	prev := "in"
	for i := 0; i < n; i++ {
		mid := fmt.Sprintf("m%d", i)
		next := fmt.Sprintf("n%d", i)
		if i == n-1 {
			next = "out"
		}
		nl.AddR(fmt.Sprintf("r%d", i), prev, mid, 2)
		nl.AddL(fmt.Sprintf("l%d", i), mid, next, 0.2e-9)
		nl.AddC(fmt.Sprintf("c%d", i), next, "0", 20e-15)
		prev = next
	}
	nl.AddR("rload", "out", "0", 500)
	in, _ := nl.NodeIndex("in")
	out, _ := nl.NodeIndex("out")
	return nl, in, out
}

func fullTransfer(nl *circuit.Netlist, inNode string, outNode string, f float64, t *testing.T) complex128 {
	t.Helper()
	// Reference: full AC solve with a 1A injection at the input. The
	// probe source is appended and popped so nl stays reusable.
	ii := nl.AddI("probe", "0", inNode, circuit.DC(0))
	defer func() {
		nl.ISources = nl.ISources[:len(nl.ISources)-1]
	}()
	x, err := sim.AC(nl, 2*math.Pi*f, sim.ACStimulus{ISourceAmps: map[int]complex128{ii: 1}})
	if err != nil {
		t.Fatal(err)
	}
	oi, _ := nl.NodeIndex(outNode)
	return x[oi]
}

func TestReduceMatchesFullTransfer(t *testing.T) {
	nl, in, out := rlcLine(12)
	m := circuit.BuildSparse(nl)
	rm, err := Reduce(m, groundedPorts([]int{in}), []int{in, out}, Options{Blocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rm.Order() >= m.Size() {
		t.Fatalf("no reduction: order %d vs full %d", rm.Order(), m.Size())
	}
	for _, f := range []float64{1e6, 1e8, 1e9, 3e9} {
		h, err := rm.TransferAt(2 * math.Pi * f)
		if err != nil {
			t.Fatal(err)
		}
		ref := fullTransfer(nl, "in", "out", f, t)
		got := h.At(1, 0)
		if cmplx.Abs(got-ref)/cmplx.Abs(ref) > 1e-3 {
			t.Errorf("f=%g: reduced transfer %v, full %v", f, got, ref)
		}
	}
}

func TestReduceMomentMatchingAtDC(t *testing.T) {
	// At DC the transfer is pure resistance: with a 1A injection, the
	// input voltage equals the driving-point resistance (series R chain
	// in parallel with rload... here series path to rload then ground).
	nl, in, out := rlcLine(6)
	m := circuit.BuildSparse(nl)
	rm, err := Reduce(m, groundedPorts([]int{in}), []int{in, out}, Options{Blocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rm.TransferAt(0)
	if err != nil {
		t.Fatal(err)
	}
	// Tolerance 1e-4: Reduce adds gmin=1e-9 S to every node, which
	// bleeds a few mohm at DC by design.
	wantIn := 6*2 + 500.0 // 6 series R + load
	if math.Abs(real(h.At(0, 0))-wantIn)/wantIn > 1e-4 {
		t.Errorf("DC driving-point R = %v, want %g", h.At(0, 0), wantIn)
	}
	if math.Abs(real(h.At(1, 0))-500)/500 > 1e-4 {
		t.Errorf("DC transfer to out = %v, want 500", h.At(1, 0))
	}
}

func TestReducedTranMatchesFullSim(t *testing.T) {
	nl, in, out := rlcLine(10)
	m := circuit.BuildSparse(nl)
	rm, err := Reduce(m, groundedPorts([]int{in}), []int{out}, Options{Blocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Drive with a current pulse; compare against the full simulator
	// with an equivalent ISource.
	pulse := circuit.Pulse{V1: 0, V2: 1e-3, Delay: 0.1e-9, Rise: 50e-12, Width: 2e-9, Fall: 50e-12}
	h := 2e-12
	red, err := rm.Tran(func(tm float64) []float64 {
		return []float64{pulse.At(tm)}
	}, 3e-9, h)
	if err != nil {
		t.Fatal(err)
	}
	nl.AddI("drv", "0", "in", pulse)
	full, err := sim.Tran(nl, sim.TranOptions{TStop: 3e-9, TStep: h})
	if err != nil {
		t.Fatal(err)
	}
	vout := full.MustV("out")
	if len(red.Times) != len(full.Times) {
		t.Fatalf("time base mismatch: %d vs %d", len(red.Times), len(full.Times))
	}
	worst := 0.0
	peak := 0.0
	for k := range red.Times {
		worst = math.Max(worst, math.Abs(red.Outputs[k][0]-vout[k]))
		peak = math.Max(peak, math.Abs(vout[k]))
	}
	if worst > 0.01*peak {
		t.Errorf("reduced transient deviates by %g (peak %g)", worst, peak)
	}
	_ = in
	_ = out
}

func TestReducedStability(t *testing.T) {
	nl, in, out := rlcLine(15)
	m := circuit.BuildSparse(nl)
	rm, err := Reduce(m, groundedPorts([]int{in}), []int{out}, Options{Blocks: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.StableSpectrum(); err != nil {
		t.Errorf("PRIMA lost the passivity structure: %v", err)
	}
	// Long-horizon reduced transient must not blow up.
	res, err := rm.Tran(func(tm float64) []float64 { return []float64{1e-3} }, 50e-9, 10e-12)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Outputs[len(res.Outputs)-1][0]
	if math.IsNaN(last) || math.Abs(last) > 10 {
		t.Errorf("reduced model diverges: final output %g", last)
	}
}

func TestReduceWithMutualInductance(t *testing.T) {
	// Coupled lines: reduction must handle the mutual inductance block
	// and stay accurate on the victim waveform.
	nl := circuit.New()
	nl.AddR("ra", "in", "a1", 5)
	la := nl.AddL("la", "a1", "a2", 1e-9)
	nl.AddC("ca", "a2", "0", 50e-15)
	nl.AddR("rla", "a2", "0", 200)
	nl.AddR("rb", "vb0", "b1", 5)
	lb := nl.AddL("lb", "b1", "b2", 1e-9)
	nl.AddC("cb", "b2", "0", 50e-15)
	nl.AddR("rlb", "b2", "0", 200)
	nl.AddR("rbgnd", "vb0", "0", 1) // victim near-end termination
	nl.AddM("m", la, lb, 0.5e-9)
	in, _ := nl.NodeIndex("in")
	victim, _ := nl.NodeIndex("b2")
	m := circuit.BuildSparse(nl)
	rm, err := Reduce(m, groundedPorts([]int{in}), []int{victim}, Options{Blocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1e8, 1e9, 5e9} {
		h, err := rm.TransferAt(2 * math.Pi * f)
		if err != nil {
			t.Fatal(err)
		}
		ref := fullTransfer(nl, "in", "b2", f, t)
		if cmplx.Abs(ref) < 1e-12 {
			continue
		}
		if cmplx.Abs(h.At(0, 0)-ref)/cmplx.Abs(ref) > 1e-3 {
			t.Errorf("f=%g: coupled transfer %v, want %v", f, h.At(0, 0), ref)
		}
	}
}

func TestReduceErrors(t *testing.T) {
	nl, in, _ := rlcLine(3)
	m := circuit.BuildSparse(nl)
	if _, err := Reduce(m, nil, nil, Options{}); err == nil {
		t.Errorf("no ports accepted")
	}
	if _, err := Reduce(m, []Port{{Plus: m.Size() + 5, Minus: -1}}, nil, Options{}); err == nil {
		t.Errorf("bad port index accepted")
	}
	if _, err := Reduce(m, []Port{{Plus: -1, Minus: -1}}, nil, Options{}); err == nil {
		t.Errorf("fully grounded port accepted")
	}
	rm, err := Reduce(m, groundedPorts([]int{in}), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rm.Tran(func(float64) []float64 { return []float64{0} }, 0, 1e-12); err == nil {
		t.Errorf("bad tran range accepted")
	}
}

// TestReduceChecksInputsBeforeFactoring gives Reduce a pencil whose G
// is singular even with gmin (two inductors in parallel make two equal
// branch rows): bad ports and observation nodes must be reported as
// such, which they can only be if they are checked before G is
// factored.
func TestReduceChecksInputsBeforeFactoring(t *testing.T) {
	nl := circuit.New()
	nl.AddR("r", "in", "a", 1)
	nl.AddL("l1", "a", "0", 1e-9)
	nl.AddL("l2", "a", "0", 1e-9)
	in, _ := nl.NodeIndex("in")
	m := circuit.BuildSparse(nl)
	if _, err := Reduce(m, groundedPorts([]int{in}), []int{in}, Options{}); err == nil || !strings.Contains(err.Error(), "singular") {
		t.Fatalf("valid inputs on a singular G: error %v, want a singular-G error", err)
	}
	for _, tc := range []struct {
		ports   []Port
		observe []int
		want    string
	}{
		{[]Port{{Plus: -5, Minus: in}}, []int{in}, "active port"},
		{groundedPorts([]int{in}), []int{m.Size()}, "observation node"},
		{groundedPorts([]int{in}), []int{-1}, "observation node"},
	} {
		_, err := Reduce(m, tc.ports, tc.observe, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ports %+v observe %v: error %v, want one naming the %s", tc.ports, tc.observe, err, tc.want)
		}
	}
}

// groundedPorts converts bare node indices to single-ended ports.
func groundedPorts(nodes []int) []Port {
	out := make([]Port, len(nodes))
	for i, n := range nodes {
		out[i] = Port{Plus: n, Minus: -1}
	}
	return out
}
