package core

import (
	"math"
	"testing"

	"inductance101/internal/engine"
	"inductance101/internal/fasthenry"
)

func TestLoopFlowMultiSegmentAndSingleFrequency(t *testing.T) {
	c := testCase(t)
	base := DefaultLoopOptions()
	base.TStop, base.TStep = 2.0e-9, 4e-12
	ref, err := c.RunLoop(base)
	if err != nil {
		t.Fatal(err)
	}
	// Distributing the ladder over several RLC-π sections ("the lumped
	// representation can be improved by increasing the number of RLC-π
	// segments") must stay close to the lumped answer at these scales.
	multi := base
	multi.RCSegments = 3
	rm, err := c.RunLoop(multi)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Stats.NumL <= ref.Stats.NumL {
		t.Errorf("multi-segment loop netlist not larger: %d vs %d", rm.Stats.NumL, ref.Stats.NumL)
	}
	dev := math.Abs(rm.WorstDelay-ref.WorstDelay) / ref.WorstDelay
	if dev > 0.25 {
		t.Errorf("multi-segment delay deviates %.0f%% from lumped", dev*100)
	}
	// Single-frequency (non-ladder) variant, Fig. 3(c).
	single := base
	single.Ladder = false
	rs, err := c.RunLoop(single)
	if err != nil {
		t.Fatal(err)
	}
	if rs.WorstDelay <= 0 {
		t.Errorf("single-frequency loop model delay %g", rs.WorstDelay)
	}
	// Validation.
	bad := base
	bad.FLow, bad.FHigh = 1e10, 1e9
	if _, err := c.RunLoop(bad); err == nil {
		t.Errorf("inverted band accepted")
	}
}

// TestLoopFlowIterativeModes runs the loop flow end to end with the
// solve mode forced onto the compressed-operator paths, so every sink's
// short goes through a port GMRES over the one shared operator: the
// per-sink delays must match the dense flow's, with the two-point
// ladder and with the single-frequency model.
func TestLoopFlowIterativeModes(t *testing.T) {
	dense := testCase(t)
	for _, mode := range []fasthenry.SolveMode{fasthenry.ModeIterative, fasthenry.ModeNested} {
		c := testCaseWith(t, engine.Config{SolveMode: mode})
		if got := c.session().SolverOptions().Mode; got != mode {
			t.Fatalf("session solve mode %v, want %v", got, mode)
		}
		for _, ladder := range []bool{true, false} {
			opt := DefaultLoopOptions()
			opt.TStop, opt.TStep = 2.0e-9, 4e-12
			opt.Ladder = ladder
			want, err := dense.RunLoop(opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.RunLoop(opt)
			if err != nil {
				t.Fatalf("%v ladder=%v: %v", mode, ladder, err)
			}
			if len(got.Delays) != len(want.Delays) || len(got.Delays) != len(c.Clock.Sinks) {
				t.Fatalf("%v ladder=%v: %d delays, dense %d, %d sinks",
					mode, ladder, len(got.Delays), len(want.Delays), len(c.Clock.Sinks))
			}
			for k := range got.Delays {
				if d := math.Abs(got.Delays[k]-want.Delays[k]) / want.Delays[k]; d > 1e-6 {
					t.Errorf("%v ladder=%v sink %d: delay %g, dense %g (rel %.2g)",
						mode, ladder, k, got.Delays[k], want.Delays[k], d)
				}
			}
		}
	}
}

// TestLoopSingleFrequencyUsesFLow: without the ladder the flow fits the
// single-frequency R+L at FLow and solves no other frequency, so moving
// FHigh leaves every sink delay bit-identical. (FHigh still sizes the
// mesh; at both values the filament count sits at the flow's
// MaxPerSide cap.) With the ladder on, the same move changes the
// delays, which shows the move reaches the flow.
func TestLoopSingleFrequencyUsesFLow(t *testing.T) {
	c := testCase(t)
	delays := func(ladder bool, fHigh float64) []float64 {
		opt := DefaultLoopOptions()
		opt.TStop, opt.TStep = 2.0e-9, 4e-12
		opt.Ladder = ladder
		opt.FHigh = fHigh
		r, err := c.RunLoop(opt)
		if err != nil {
			t.Fatalf("ladder=%v FHigh=%g: %v", ladder, fHigh, err)
		}
		return r.Delays
	}
	for _, ladder := range []bool{false, true} {
		a, b := delays(ladder, 1e10), delays(ladder, 3e10)
		moved := 0
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				moved++
			}
		}
		if !ladder && moved > 0 {
			t.Errorf("single-frequency model: %d of %d sink delays moved with FHigh", moved, len(a))
		}
		if ladder && moved == 0 {
			t.Error("ladder model: no sink delay moved with FHigh; the test no longer reaches the flow")
		}
	}
}
