package core

import (
	"math"
	"strings"
	"testing"
)

// TestTable1RLCDelaysPinned pins the PEEC(RLC) sink delays of the
// scaled `clocksim -nx 6 -ny 6 -levels 3` case (seed 1) to 1e-12
// relative. The values were recorded from the sparse transient that
// stepped x_{k+1} = A⁻¹((αC − G)x_k + b_k + b_{k+1}); the delta form
// x_{k+1} = x_k + A⁻¹(b_k + b_{k+1} − (2G + gmin)x_k) is the same
// integration rule and only rounds differently.
func TestTable1RLCDelaysPinned(t *testing.T) {
	opt := DefaultCaseOptions()
	opt.Grid.NX, opt.Grid.NY = 6, 6
	opt.ClockLevels = 3
	opt.Seed = 1
	c, err := NewClockCase(opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.RunPEEC(DefaultFlowOptions(StrategyFull))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{
		1.0468712527199442e-10, 1.0100769095178815e-10,
		1.0641766103892352e-10, 9.8112143337229814e-11,
		1.1982195134430853e-10, 1.1582133363337748e-10,
		1.1996442783369445e-10, 1.1234713724362351e-10,
	}
	if len(r.Delays) != len(want) {
		t.Fatalf("%d sink delays, want %d", len(r.Delays), len(want))
	}
	worst := 0.0
	for k, d := range r.Delays {
		if rel := math.Abs(d-want[k]) / want[k]; rel > 1e-12 {
			t.Errorf("sink %d: delay %.17g, want %.17g (%.2g relative)", k, d, want[k], rel)
		}
		worst = math.Max(worst, want[k])
	}
	if rel := math.Abs(r.WorstDelay-worst) / worst; rel > 1e-12 {
		t.Errorf("worst delay %.17g, want %.17g (%.2g relative)", r.WorstDelay, worst, rel)
	}
}

// TestMeasureRejectsNonFiniteWaveforms checks that a sink waveform
// holding NaN or Inf fails the measure stage with the sink's index
// instead of becoming a delay.
func TestMeasureRejectsNonFiniteWaveforms(t *testing.T) {
	c := testCase(t)
	times := []float64{0, 1e-10, 2e-10, 3e-10, 4e-10}
	vdd := c.Opt.Vdd
	good := []float64{0, 0.2 * vdd, 0.6 * vdd, vdd, vdd}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		res := &FlowResult{Times: times, SinkV: [][]float64{good, {0, 0.2 * vdd, bad, vdd, vdd}}}
		err := c.measure(res)
		if err == nil || !strings.Contains(err.Error(), "sink 1") || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("%g sample: measure error %v, want a not-finite error naming sink 1", bad, err)
		}
	}
}
