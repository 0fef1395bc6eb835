package sim

import (
	"fmt"
	"math"
)

// Measurement helpers over sampled waveforms, used to produce the
// paper's delay/skew/noise numbers.

// CrossTime returns the first time the waveform crosses the threshold in
// the given direction (rising: from below to at-or-above), linearly
// interpolating between samples. Returns an error if it never crosses,
// or if any sample is NaN or infinite: a diverged transient has no
// delay, and must not yield one from whichever samples happen to
// compare as a crossing.
func CrossTime(times, v []float64, threshold float64, rising bool) (float64, error) {
	if len(times) != len(v) || len(times) < 2 {
		return 0, fmt.Errorf("sim: bad waveform (%d points)", len(times))
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("sim: waveform is not finite (%g at t=%g)", x, times[i])
		}
	}
	for i := 1; i < len(v); i++ {
		var crossed bool
		if rising {
			crossed = v[i-1] < threshold && v[i] >= threshold
		} else {
			crossed = v[i-1] > threshold && v[i] <= threshold
		}
		if crossed {
			dv := v[i] - v[i-1]
			if dv == 0 {
				return times[i], nil
			}
			f := (threshold - v[i-1]) / dv
			return times[i-1] + f*(times[i]-times[i-1]), nil
		}
	}
	dir := "rising"
	if !rising {
		dir = "falling"
	}
	return 0, fmt.Errorf("sim: waveform never crosses %g %s", threshold, dir)
}

// Skew returns max - min of the given per-sink delays, the paper's
// "worst skew" metric for a clock net.
func Skew(delays []float64) float64 {
	if len(delays) == 0 {
		return 0
	}
	lo, hi := delays[0], delays[0]
	for _, d := range delays[1:] {
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	return hi - lo
}

// Overshoot returns max(v) - vHigh (0 if the waveform never exceeds the
// rail): the signal-integrity overshoot the paper attributes to
// inductance.
func Overshoot(v []float64, vHigh float64) float64 {
	m := vHigh
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m - vHigh
}

// Integrate returns the trapezoidal integral of the waveform over its
// full span (e.g. current -> charge).
func Integrate(times, v []float64) float64 {
	s := 0.0
	for i := 1; i < len(times); i++ {
		s += (v[i] + v[i-1]) / 2 * (times[i] - times[i-1])
	}
	return s
}

// PeakAbs returns the maximum |v|.
func PeakAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}
