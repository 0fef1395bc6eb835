package core

import (
	"strings"
	"testing"
)

// TestFullFlowChecksPositiveDefinite covers the full strategy's
// passivity check. At 10×10×4 an H-tree arm lies on a VDD rail of the
// same layer and the extracted partial L is indefinite, so PEEC(RLC)
// must stop at the sparsify stage instead of running an unstable
// transient. At 6×6×3 the partial L is positive definite and the flow
// says so.
func TestFullFlowChecksPositiveDefinite(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts a 10×10×4 case")
	}
	opt := DefaultCaseOptions()
	opt.Grid.NX, opt.Grid.NY = 10, 10
	opt.ClockLevels = 4
	c, err := NewClockCase(opt)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RunPEEC(fastOpt(StrategyFull))
	if err == nil || !strings.Contains(err.Error(), "PEEC(RLC)") ||
		!strings.Contains(err.Error(), "partial L is not positive definite") {
		t.Fatalf("10×10×4 PEEC(RLC): err = %v, want the flow's non-PD partial L error", err)
	}

	opt = DefaultCaseOptions()
	opt.Grid.NX, opt.Grid.NY = 6, 6
	opt.ClockLevels = 3
	opt.Seed = 1
	c, err = NewClockCase(opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.RunPEEC(fastOpt(StrategyFull))
	if err != nil {
		t.Fatal(err)
	}
	if !r.PositiveDefinite {
		t.Error("6×6×3 PEEC(RLC) reports a non-PD partial L")
	}
}
