//go:build !race

package matrix_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
