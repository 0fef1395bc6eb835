package sim

import (
	"math"
	"testing"

	"inductance101/internal/circuit"
)

// TestNewtonMatchesDenseOraclePinned runs the MOSFET netlists of
// sim_test.go through Tran, trapezoidal and backward Euler, and checks
// every saved state against the dense Newton oracle within 1e-9 (volts
// and amps): the two engines share the Newton policy and the assembly,
// and differ only in the LU that solves each iteration.
func TestNewtonMatchesDenseOraclePinned(t *testing.T) {
	for _, nc := range []struct {
		name string
		mk   func() *circuit.Netlist
		opt  TranOptions
	}{
		{"switching", switchingInverter, TranOptions{TStop: 2e-9, TStep: 2e-12}},
		{"crowbar", crowbarInverter, TranOptions{TStop: 1.5e-9, TStep: 1e-12}},
	} {
		for _, m := range []Method{Trapezoidal, BackwardEuler} {
			opt := nc.opt
			opt.Method = m
			got, err := Tran(nc.mk(), opt)
			if err != nil {
				t.Fatalf("%s, method %d: %v", nc.name, m, err)
			}
			want, err := denseTran(nc.mk(), opt)
			if err != nil {
				t.Fatalf("%s, method %d: dense oracle: %v", nc.name, m, err)
			}
			if got.NewtonIters == 0 {
				t.Errorf("%s, method %d: no Newton iterations", nc.name, m)
			}
			if len(got.Times) != len(want.Times) {
				t.Fatalf("%s, method %d: %d points, oracle %d", nc.name, m, len(got.Times), len(want.Times))
			}
			for k := range got.States {
				for i := range got.States[k] {
					if d := math.Abs(got.States[k][i] - want.States[k][i]); !(d <= 1e-9) {
						t.Fatalf("%s, method %d: state[%d][%d] = %.17g, oracle %.17g (diff %g)",
							nc.name, m, k, i, got.States[k][i], want.States[k][i], d)
					}
				}
			}
		}
	}
}
