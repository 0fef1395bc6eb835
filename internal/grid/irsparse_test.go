package grid

import (
	"math"
	"testing"
	"time"

	"inductance101/internal/circuit"
	"inductance101/internal/extract"
	"inductance101/internal/pkgmodel"
)

func irTestNetlist(t *testing.T, nx int) (*Model, *circuit.Netlist) {
	t.Helper()
	m, err := BuildPowerGrid(StandardLayers(), Spec{
		NX: nx, NY: nx, Pitch: 100e-6, Width: 4e-6, LayerX: 0, LayerY: 1, ViaR: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	par := extract.Extract(m.Layout, extract.Options{MutualWindow: 1e-9, CouplingWindow: 1e-9})
	p, err := BuildPEECNetlist(m.Layout, par, PEECOptions{Mode: ModeRC})
	if err != nil {
		t.Fatal(err)
	}
	n := p.Netlist
	if err := m.AttachPackage(n, pkgmodel.FlipChip(), 1.8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Spec.NY; i++ {
		for j := 0; j < m.Spec.NX; j++ {
			n.AddI("load", m.VddX[i][j], m.GndX[i][j], circuit.DC(1.5e-3))
		}
	}
	return m, n
}

// TestIRDropSparseMatchesDense checks the sparse Cholesky static-IR
// path against the dense-LU oracle.
func TestIRDropSparseMatchesDense(t *testing.T) {
	m, n := irTestNetlist(t, 4)
	dense, err := IRDropDC(m, n, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := IRDropDCSparseChol(m, n, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	// The sparse system models the package inductors as stiff shorts
	// and the V source by penalty; agreement to ~1% is the expectation.
	if math.Abs(dense-sparse)/dense > 0.02 {
		t.Errorf("sparse IR drop %g vs dense %g", sparse, dense)
	}
}

func TestIRDropSparseScales(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	m, n := irTestNetlist(t, 10)
	start := time.Now()
	drop, err := IRDropDCSparseChol(m, n, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	if drop <= 0 || drop > 0.9 {
		t.Errorf("large-grid IR drop %g implausible", drop)
	}
	if time.Since(start) > 20*time.Second {
		t.Errorf("sparse solve too slow: %v", time.Since(start))
	}
}
