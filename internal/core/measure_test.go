package core

import (
	"math"
	"strings"
	"testing"
)

// TestTable1RLCDelaysPinned pins the sink delays of the scaled
// `clocksim -nx 6 -ny 6 -levels 3` case (seed 1) to 1e-12 relative,
// for the PEEC(RLC) flow and the block-diagonal + PRIMA flow of
// Table 1. The PEEC(RLC) values were recorded from the sparse
// transient that stepped x_{k+1} = A⁻¹((αC − G)x_k + b_k + b_{k+1});
// the delta form x_{k+1} = x_k + A⁻¹(b_k + b_{k+1} − (2G + gmin)x_k) is
// the same integration rule and only rounds differently. The PRIMA
// values were recorded from the reduction on the dense MNA pencil; the
// reduced order is pinned exactly. The LOOP(RLC) values were recorded
// from the dense loop extraction that factored the whole branch matrix
// and extracted the two ladder frequencies one after the other.
func TestTable1RLCDelaysPinned(t *testing.T) {
	peec := func(opt FlowOptions) func(*ClockCase) (*FlowResult, error) {
		return func(c *ClockCase) (*FlowResult, error) { return c.RunPEEC(opt) }
	}
	prima := DefaultFlowOptions(StrategyBlockDiag)
	prima.UsePRIMA = true
	cases := []struct {
		name  string
		run   func(*ClockCase) (*FlowResult, error)
		order int
		want  []float64
	}{
		{"rlc", peec(DefaultFlowOptions(StrategyFull)), 0, []float64{
			1.0468712527199442e-10, 1.0100769095178815e-10,
			1.0641766103892352e-10, 9.8112143337229814e-11,
			1.1982195134430853e-10, 1.1582133363337748e-10,
			1.1996442783369445e-10, 1.1234713724362351e-10,
		}},
		{"blockdiag+prima", peec(prima), 16, []float64{
			1.0032213552196337e-10, 1.0046958832373061e-10,
			1.0089433289944882e-10, 1.0134368412759617e-10,
			1.1862974392043594e-10, 1.1839753809432414e-10,
			1.1904335368515424e-10, 1.1971388818432561e-10,
		}},
		{"loop", func(c *ClockCase) (*FlowResult, error) { return c.RunLoop(DefaultLoopOptions()) }, 0, []float64{
			9.3059410066627145e-11, 9.4733512840237481e-11,
			9.3720731190812656e-11, 9.6565971244647833e-11,
			9.3036131413496181e-11, 1.0126238053227221e-10,
			9.4024148161684463e-11, 1.0390571959867465e-10,
		}},
	}
	opt := DefaultCaseOptions()
	opt.Grid.NX, opt.Grid.NY = 6, 6
	opt.ClockLevels = 3
	opt.Seed = 1
	c, err := NewClockCase(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.run(c)
			if err != nil {
				t.Fatal(err)
			}
			if r.ReducedOrder != tc.order {
				t.Errorf("reduced order %d, want %d", r.ReducedOrder, tc.order)
			}
			if len(r.Delays) != len(tc.want) {
				t.Fatalf("%d sink delays, want %d", len(r.Delays), len(tc.want))
			}
			worst := 0.0
			for k, d := range r.Delays {
				if rel := math.Abs(d-tc.want[k]) / tc.want[k]; rel > 1e-12 {
					t.Errorf("sink %d: delay %.17g, want %.17g (%.2g relative)", k, d, tc.want[k], rel)
				}
				worst = math.Max(worst, tc.want[k])
			}
			if rel := math.Abs(r.WorstDelay-worst) / worst; rel > 1e-12 {
				t.Errorf("worst delay %.17g, want %.17g (%.2g relative)", r.WorstDelay, worst, rel)
			}
		})
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
