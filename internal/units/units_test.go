package units

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if got, want := Mu0, 1.2566370614359173e-6; math.Abs(got-want) > 1e-18 {
		t.Errorf("Mu0 = %g, want %g", got, want)
	}
	// c = 1/sqrt(mu0 eps0) must be the speed of light to ~1e-3 relative
	// (Eps0 here is the CODATA value; Mu0 the pre-2019 exact value).
	c := 1 / math.Sqrt(Mu0*Eps0)
	if !relClose(c, 2.99792458e8, 1e-6) {
		t.Errorf("1/sqrt(mu0 eps0) = %g, want c", c)
	}
}

func TestSkinDepth(t *testing.T) {
	// Copper at 1 GHz: ~2.36 um with rho=2.2e-8.
	d := SkinDepth(RhoCu, 1e9)
	if !relClose(d, 2.36e-6, 0.02) {
		t.Errorf("skin depth = %g, want ~2.36um", d)
	}
	if !math.IsInf(SkinDepth(RhoCu, 0), 1) {
		t.Errorf("skin depth at DC should be +Inf")
	}
	// Skin depth decreases as 1/sqrt(f).
	d1, d4 := SkinDepth(RhoCu, 1e9), SkinDepth(RhoCu, 4e9)
	if !relClose(d1/d4, 2, 1e-12) {
		t.Errorf("skin depth ratio = %g, want 2", d1/d4)
	}
}

func TestFormatSI(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{2.2e-9, "H", "2.2nH"},
		{0, "F", "0F"},
		{1.5e3, "Hz", "1.5kHz"},
		{-3e-12, "F", "-3pF"},
		{1, "ohm", "1ohm"},
		{1e10, "Hz", "10GHz"},
	}
	for _, c := range cases {
		if got := FormatSI(c.v, c.unit); got != c.want {
			t.Errorf("FormatSI(%g,%q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	f := func(mant float64, exp int8) bool {
		e := int(exp)%12 - 6 // exponent in [-6, 5]
		v := (1 + math.Abs(math.Mod(mant, 8.9))) * math.Pow10(e*3)
		s := FormatSI(v, "H")
		got, ok := parseFormatted(s, "H")
		if !ok {
			return false
		}
		// FormatSI prints 4 significant digits.
		return relClose(got, v, 1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// relClose reports |a-b| <= rel*max(|a|, |b|).
func relClose(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// parseFormatted inverts FormatSI for one unit symbol: the number, an
// optional prefix from siPrefixes, then unit.
func parseFormatted(s, unit string) (float64, bool) {
	body, ok := strings.CutSuffix(s, unit)
	if !ok {
		return 0, false
	}
	mult := 1.0
	for _, p := range siPrefixes {
		if p.symbol != "" && strings.HasSuffix(body, p.symbol) {
			body, mult = strings.TrimSuffix(body, p.symbol), p.mult
			break
		}
	}
	v, err := strconv.ParseFloat(body, 64)
	return v * mult, err == nil
}
