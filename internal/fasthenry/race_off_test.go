//go:build !race

package fasthenry

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
