package tline

import (
	"math"
	"testing"
	"testing/quick"
)

// wideGlobal is a wide, low-resistance global wire — the kind §7 says
// behaves inductively.
func wideGlobal() LineParams {
	p, err := FromGeometry(8e-6, 1.2e-6, 1.1e-6, 0.018, 20e-6)
	if err != nil {
		panic(err)
	}
	return p
}

// thinLocal is a narrow, resistive local wire — §7's "short/medium
// wires show resistive behaviour".
func thinLocal() LineParams {
	p, err := FromGeometry(0.4e-6, 0.4e-6, 0.4e-6, 0.08, 1.2e-6)
	if err != nil {
		panic(err)
	}
	return p
}

func TestFromGeometryValidation(t *testing.T) {
	if _, err := FromGeometry(0, 1e-6, 1e-6, 0.02, 5e-6); err == nil {
		t.Errorf("zero width accepted")
	}
	if _, err := FromGeometry(2e-6, 1e-6, 1e-6, 0.02, 1e-6); err == nil {
		t.Errorf("return inside the wire accepted")
	}
	p := wideGlobal()
	if p.R <= 0 || p.L <= 0 || p.C <= 0 {
		t.Errorf("non-physical params %+v", p)
	}
	// Plausible magnitudes: global wires run ~100s nH/m and ~100pF/m.
	if p.L < 1e-8 || p.L > 1e-5 {
		t.Errorf("L/m = %g implausible", p.L)
	}
	if p.C < 1e-11 || p.C > 1e-9 {
		t.Errorf("C/m = %g implausible", p.C)
	}
}

func TestCriticalRangeShape(t *testing.T) {
	p := wideGlobal()
	lMin, lMax, ok := CriticalRange(p, 50e-12)
	if !ok {
		t.Fatalf("wide global wire should have a nonempty inductive window")
	}
	if lMin <= 0 || lMax <= lMin {
		t.Fatalf("window [%g, %g] malformed", lMin, lMax)
	}
	// Faster edges widen the window downward.
	lMin2, _, _ := CriticalRange(p, 25e-12)
	if lMin2 >= lMin {
		t.Errorf("faster edge should lower lMin: %g vs %g", lMin2, lMin)
	}
	// The thin local wire's window must be much smaller or empty.
	tl := thinLocal()
	_, lMaxThin, okThin := CriticalRange(tl, 50e-12)
	if okThin && lMaxThin > lMax {
		t.Errorf("resistive wire has a larger inductive window (%g > %g)?", lMaxThin, lMax)
	}
}

func TestCriticalRangeProperty(t *testing.T) {
	// For any physical parameters: lMin scales linearly with tRise and
	// lMax is independent of it; both positive.
	f := func(ru, lu, cu uint16, tr8 uint8) bool {
		p := LineParams{
			R: 100 + float64(ru), // ohm/m
			L: 1e-7 * (1 + float64(lu)/1000),
			C: 1e-10 * (1 + float64(cu)/1000),
		}
		tr := 10e-12 * (1 + float64(tr8))
		l1, h1, _ := CriticalRange(p, tr)
		l2, h2, _ := CriticalRange(p, 2*tr)
		if l1 <= 0 || h1 <= 0 {
			return false
		}
		if math.Abs(l2-2*l1) > 1e-9*l1 {
			return false
		}
		return h1 == h2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
