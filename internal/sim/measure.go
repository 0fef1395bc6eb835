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

// Delay50 returns the 50%-to-50% delay between an input and an output
// waveform transitioning between vLow and vHigh.
func Delay50(times, vin, vout []float64, vLow, vHigh float64, rising bool) (float64, error) {
	mid := (vLow + vHigh) / 2
	t0, err := CrossTime(times, vin, mid, rising)
	if err != nil {
		return 0, fmt.Errorf("sim: input: %w", err)
	}
	t1, err := CrossTime(times, vout, mid, rising)
	if err != nil {
		return 0, fmt.Errorf("sim: output: %w", err)
	}
	return t1 - t0, nil
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

// Undershoot returns vLow - min(v) (0 if the waveform never dips below).
func Undershoot(v []float64, vLow float64) float64 {
	m := vLow
	for _, x := range v {
		m = math.Min(m, x)
	}
	return vLow - m
}

// SettleTime returns the time after which the waveform stays within
// band of vFinal, or an error if it never settles.
func SettleTime(times, v []float64, vFinal, band float64) (float64, error) {
	if len(times) != len(v) || len(times) == 0 {
		return 0, fmt.Errorf("sim: bad waveform")
	}
	last := -1
	for i := len(v) - 1; i >= 0; i-- {
		if math.Abs(v[i]-vFinal) > band {
			last = i
			break
		}
	}
	if last == len(v)-1 {
		return 0, fmt.Errorf("sim: waveform does not settle within %g of %g", band, vFinal)
	}
	return times[last+1], nil
}

// RingFrequency estimates the oscillation frequency of a ringing
// waveform from the mean spacing of its crossings of vRef after tStart.
// Returns 0 if fewer than 3 crossings exist (no ringing).
func RingFrequency(times, v []float64, vRef, tStart float64) float64 {
	var crossings []float64
	for i := 1; i < len(v); i++ {
		if times[i] < tStart {
			continue
		}
		if (v[i-1] < vRef && v[i] >= vRef) || (v[i-1] > vRef && v[i] <= vRef) {
			dv := v[i] - v[i-1]
			f := 0.0
			if dv != 0 {
				f = (vRef - v[i-1]) / dv
			}
			crossings = append(crossings, times[i-1]+f*(times[i]-times[i-1]))
		}
	}
	if len(crossings) < 3 {
		return 0
	}
	// Consecutive crossings are half periods.
	span := crossings[len(crossings)-1] - crossings[0]
	halfPeriods := float64(len(crossings) - 1)
	return halfPeriods / (2 * span)
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

// MaxErr returns the maximum absolute pointwise difference between two
// equal-length waveforms — the accuracy metric for comparing sparsified
// or reduced models against the full PEEC reference.
func MaxErr(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("sim: MaxErr length mismatch")
	}
	m := 0.0
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}
