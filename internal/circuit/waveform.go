package circuit

import (
	"math"
	"sort"
)

// Waveform is a time-varying source value v(t).
type Waveform interface {
	// At returns the source value at time t (t >= 0).
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At returns the constant value.
func (d DC) At(float64) float64 { return float64(d) }

// Pulse is the SPICE PULSE source: V1 before Delay, linear rise to V2
// over Rise, hold for Width, linear fall over Fall, then V1 again,
// repeating with Period if Period > 0.
type Pulse struct {
	V1, V2                   float64
	Delay, Rise, Width, Fall float64
	Period                   float64
}

// At evaluates the pulse.
func (p Pulse) At(t float64) float64 {
	t -= p.Delay
	if t < 0 {
		return p.V1
	}
	if p.Period > 0 {
		t = math.Mod(t, p.Period)
	}
	switch {
	case t < p.Rise:
		if p.Rise == 0 {
			return p.V2
		}
		return p.V1 + (p.V2-p.V1)*t/p.Rise
	case t < p.Rise+p.Width:
		return p.V2
	case t < p.Rise+p.Width+p.Fall:
		if p.Fall == 0 {
			return p.V1
		}
		return p.V2 + (p.V1-p.V2)*(t-p.Rise-p.Width)/p.Fall
	default:
		return p.V1
	}
}

// PWL is a piecewise-linear waveform through (Times[i], Values[i])
// breakpoints. Before the first point it holds Values[0]; after the
// last, Values[last].
type PWL struct {
	Times  []float64
	Values []float64
}

// At evaluates the waveform by binary search + linear interpolation.
func (p PWL) At(t float64) float64 {
	n := len(p.Times)
	if n == 0 {
		return 0
	}
	if t <= p.Times[0] {
		return p.Values[0]
	}
	if t >= p.Times[n-1] {
		return p.Values[n-1]
	}
	i := sort.SearchFloat64s(p.Times, t)
	// p.Times[i-1] < t <= p.Times[i]
	t0, t1 := p.Times[i-1], p.Times[i]
	v0, v1 := p.Values[i-1], p.Values[i]
	if t1 == t0 {
		return v1
	}
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// Sine is v(t) = Offset + Amplitude*sin(2*pi*Freq*(t-Delay)) for
// t >= Delay, Offset before.
type Sine struct {
	Offset, Amplitude, Freq, Delay float64
}

// At evaluates the sine.
func (s Sine) At(t float64) float64 {
	if t < s.Delay {
		return s.Offset
	}
	return s.Offset + s.Amplitude*math.Sin(2*math.Pi*s.Freq*(t-s.Delay))
}

// Scaled multiplies another waveform by a constant — used by the grid
// generator to give each background-switching current source a random
// magnitude while sharing one activity profile.
type Scaled struct {
	W Waveform
	K float64
}

// At evaluates k * w(t).
func (s Scaled) At(t float64) float64 { return s.K * s.W.At(t) }

// Shifted delays another waveform by Dt, modelling "different parts of
// the chip switching at different times" (§3, current sources).
type Shifted struct {
	W  Waveform
	Dt float64
}

// At evaluates w(t - dt).
func (s Shifted) At(t float64) float64 { return s.W.At(t - s.Dt) }
