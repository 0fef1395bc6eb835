package core

import (
	"math"
	"testing"

	"inductance101/internal/engine"
	"inductance101/internal/grid"
)

// testCase returns a reduced-size case so the full flow suite stays
// fast under `go test`.
func testCase(t *testing.T) *ClockCase {
	t.Helper()
	return testCaseWith(t, engine.Config{})
}

// testCaseWith is testCase under the given engine configuration.
func testCaseWith(t *testing.T, cfg engine.Config) *ClockCase {
	t.Helper()
	opt := DefaultCaseOptions()
	opt.Engine = cfg
	opt.Grid = grid.Spec{
		NX: 3, NY: 3, Pitch: 100e-6, Width: 4e-6,
		LayerX: 0, LayerY: 1, ViaR: 0.4,
	}
	opt.ClockLevels = 2
	opt.Background = 2
	c, err := NewClockCase(opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClockCase(t *testing.T) {
	c := testCase(t)
	if len(c.Clock.Sinks) != 4 {
		t.Errorf("sinks = %d", len(c.Clock.Sinks))
	}
	if c.Par.L.Rows() != len(c.Grid.Layout.Segments) {
		t.Errorf("extraction covers %d of %d segments", c.Par.L.Rows(), len(c.Grid.Layout.Segments))
	}
	if c.TotalClockInterconnectCap() <= 0 {
		t.Errorf("no clock interconnect capacitance")
	}
	for _, s := range c.Clock.Sinks {
		if _, _, err := c.sinkPosition(s); err != nil {
			t.Errorf("sink position: %v", err)
		}
	}
	if _, _, err := c.sinkPosition("nope"); err == nil {
		t.Errorf("bogus sink accepted")
	}
}

func TestTable1Flows(t *testing.T) {
	c := testCase(t)
	rows, err := Table1(c, 2.0e-9, 4e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	rc, rlc, loop := rows[0], rows[1], rows[2]

	// Headline qualitative reproduction of Table 1:
	// inductance increases the delay vs the RC model.
	if rlc.WorstDelay <= rc.WorstDelay {
		t.Errorf("RLC delay %g not above RC delay %g", rlc.WorstDelay, rc.WorstDelay)
	}
	// The loop model sees inductance too (delay above RC), but deviates
	// from the detailed PEEC answer.
	if loop.WorstDelay <= rc.WorstDelay {
		t.Errorf("loop delay %g not above RC delay %g", loop.WorstDelay, rc.WorstDelay)
	}
	dev := math.Abs(loop.WorstDelay-rlc.WorstDelay) / rlc.WorstDelay
	if dev > 0.5 {
		t.Errorf("loop model deviates %.0f%% from PEEC — too much", dev*100)
	}
	// Element counts: the loop model is drastically smaller and has no
	// mutual inductances at all (the grid return is folded into the
	// extracted loop values).
	if loop.NumR*4 > rlc.NumR || loop.NumL*2 > rlc.NumL {
		t.Errorf("loop model not smaller: R %d vs %d, L %d vs %d",
			loop.NumR, rlc.NumR, loop.NumL, rlc.NumL)
	}
	if loop.NumMutual != 0 {
		t.Errorf("loop model has %d mutuals", loop.NumMutual)
	}
	// RC interconnect has no inductors; RLC one per segment + mutuals.
	if rc.NumL != 0 || rlc.NumL == 0 || rlc.NumMutual == 0 {
		t.Errorf("element counts wrong: %+v / %+v", rc, rlc)
	}
	// Unbalanced sink loads give a measurable skew.
	if rlc.WorstSkew <= 0 {
		t.Errorf("no skew measured")
	}
	// All delays physical: positive, sub-ns at this scale.
	for _, r := range rows {
		if r.WorstDelay <= 0 || r.WorstDelay > 1e-9 {
			t.Errorf("%s worst delay %g implausible", r.Model, r.WorstDelay)
		}
		if r.WorstSkew < 0 || r.WorstSkew > r.WorstDelay {
			t.Errorf("%s skew %g vs delay %g implausible", r.Model, r.WorstSkew, r.WorstDelay)
		}
	}
	// The formatted table mentions every model.
	s := FormatTable1(rows)
	for _, want := range []string{"PEEC(RC)", "PEEC(RLC)", "LOOP(RLC)", "Worst delay"} {
		if !contains(s, want) {
			t.Errorf("formatted table missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestInductanceCausesOvershoot(t *testing.T) {
	c := testCase(t)
	rc, err := c.RunPEEC(fastOpt(StrategyRC))
	if err != nil {
		t.Fatal(err)
	}
	rlc, err := c.RunPEEC(fastOpt(StrategyFull))
	if err != nil {
		t.Fatal(err)
	}
	if rlc.Overshoot <= rc.Overshoot {
		t.Errorf("RLC overshoot %g not above RC %g", rlc.Overshoot, rc.Overshoot)
	}
}

func fastOpt(s Strategy) FlowOptions {
	o := DefaultFlowOptions(s)
	o.TStop = 2.0e-9
	o.TStep = 4e-12
	return o
}

func TestSparsifiedFlowsTrackFullModel(t *testing.T) {
	c := testCase(t)
	full, err := c.RunPEEC(fastOpt(StrategyFull))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{StrategyBlockDiag, StrategyShell, StrategyHalo} {
		r, err := c.RunPEEC(fastOpt(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !r.PositiveDefinite {
			t.Errorf("%s lost positive definiteness", r.Name)
		}
		if r.KeptFraction >= 1 {
			t.Errorf("%s kept everything", r.Name)
		}
		dev := math.Abs(r.WorstDelay-full.WorstDelay) / full.WorstDelay
		if dev > 0.15 {
			t.Errorf("%s delay deviates %.0f%% from full PEEC", r.Name, dev*100)
		}
	}
}

func TestPRIMAFlowMatchesFull(t *testing.T) {
	c := testCase(t)
	// Compare against the full flow without background activity (the
	// PRIMA flow excludes it per the paper's refinement) and with a
	// Thevenin driver, so the only modeling difference is reduction.
	cNoBg := c
	cNoBg.Opt.Background = 0
	full, err := cNoBg.RunPEEC(fastOpt(StrategyFull))
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpt(StrategyFull)
	opt.UsePRIMA = true
	red, err := cNoBg.RunPEEC(opt)
	if err != nil {
		t.Fatal(err)
	}
	if red.ReducedOrder == 0 || red.ReducedOrder >= c.Par.L.Rows()*2 {
		t.Errorf("reduced order %d implausible", red.ReducedOrder)
	}
	dev := math.Abs(red.WorstDelay-full.WorstDelay) / full.WorstDelay
	if dev > 0.10 {
		t.Errorf("PRIMA delay deviates %.1f%% from full (got %g vs %g)",
			dev*100, red.WorstDelay, full.WorstDelay)
	}
	devS := math.Abs(red.Skew - full.Skew)
	if devS > 0.25*full.Skew+2e-12 {
		t.Errorf("PRIMA skew %g vs full %g", red.Skew, full.Skew)
	}
}

func TestTruncateFlowAuditsPassivity(t *testing.T) {
	c := testCase(t)
	opt := fastOpt(StrategyTruncate)
	opt.TruncThreshold = 0.4
	r, err := c.RunPEEC(opt)
	// Either the run reports the lost passivity or (if this topology
	// survives 0.4) keeps a reduced fraction; both are valid audits —
	// but the audit fields must be consistent.
	if err != nil {
		t.Skipf("truncated model did not simulate (expected for active models): %v", err)
	}
	if r.KeptFraction >= 1 {
		t.Errorf("truncation kept everything at threshold 0.4")
	}
}

func TestCurrentAnalysis(t *testing.T) {
	c := testCase(t)
	cc, err := c.CurrentAnalysis(1.5e-9, 4e-12)
	if err != nil {
		t.Fatal(err)
	}
	if cc.QShort <= 0 {
		t.Errorf("no short-circuit charge (I1 missing)")
	}
	if cc.QCharge <= 0 {
		t.Errorf("no charging current (I2 missing)")
	}
	// The load charge dominates the crowbar charge for a healthy gate.
	if cc.QCharge < cc.QShort {
		t.Errorf("QCharge %g below QShort %g — ramp too slow", cc.QCharge, cc.QShort)
	}
	// Output must rise to the rail.
	last := cc.VOut[len(cc.VOut)-1]
	if last < 0.9*c.Opt.Vdd {
		t.Errorf("driver output only reached %g", last)
	}
	// Total charge delivered to the 60fF load + parasitics should be
	// within an order of magnitude of C*Vdd.
	wantQ := 60e-15 * c.Opt.Vdd
	if cc.QCharge < wantQ/2 || cc.QCharge > wantQ*20 {
		t.Errorf("QCharge %g vs CVdd %g implausible", cc.QCharge, wantQ)
	}
}
