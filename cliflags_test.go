package repro

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRejectsUnknownEnumFlags pins the fail-fast contract of every
// enum-valued CLI flag: an unknown value exits nonzero with a one-line
// error on stderr, before the tool opens files or starts extracting.
func TestCLIRejectsUnknownEnumFlags(t *testing.T) {
	dir := buildTools(t)
	cases := []struct {
		tool string
		args []string
	}{
		{"inductx", []string{"-solver", "bogus", "nonexistent.json"}},
		{"inductx", []string{"-kernelcache", "maybe", "nonexistent.json"}},
		{"inductx", []string{"-l", "verbose", "nonexistent.json"}},
		{"rlsweep", []string{"-solver", "bogus"}},
		{"clocksim", []string{"-kernelcache", "sometimes"}},
		// The per-run private cache is what "on" does now.
		{"clocksim", []string{"-kernelcache", "private"}},
		{"clocksim", []string{"-solver", "hierarchical"}},
		// -synthtran without a synthetic grid, and a negative node
		// count, would otherwise fall through to the PEEC analyzer.
		{"gridnoise", []string{"-synth", "0", "-synthtran"}},
		{"gridnoise", []string{"-synth", "-5"}},
		// -workers caps only the -synth multigrid; the PEEC analyzer
		// would ignore it.
		{"gridnoise", []string{"-workers", "2"}},
		// The PEEC-analyzer flags mean nothing to the -synth multigrid
		// path, which would ignore them.
		{"gridnoise", []string{"-nx", "9", "-synth", "2000"}},
		{"gridnoise", []string{"-ny", "9", "-synth", "2000"}},
		{"gridnoise", []string{"-pitch", "0.0002", "-synth", "2000"}},
		{"gridnoise", []string{"-burst", "0.05", "-synth", "2000"}},
		{"gridnoise", []string{"-decap", "10000", "-synth", "2000"}},
		{"gridnoise", []string{"-sweep", "-synth", "2000"}},
		{"gridnoise", []string{"-packages", "-synth", "2000"}},
		// A negative kernel-cache byte cap is rejected by the shared
		// engine.Config validation in every tool that carries the cache,
		// daemon included — fail-fast, before any input file is opened.
		// rlsweep carries none: its filament kernels are computed
		// directly.
		{"inductx", []string{"-cachebytes", "-1", "nonexistent.json"}},
		{"clocksim", []string{"-cachebytes", "-1"}},
		{"inductd", []string{"-cachebytes", "-65536"}},
		// A negative worker cap is not "all cores": engine.Config and
		// gridnoise's flag checks reject it before any input is opened.
		{"gridnoise", []string{"-workers", "-3", "-synth", "2000"}},
		{"clocksim", []string{"-workers", "-1"}},
		{"rlsweep", []string{"-workers", "-2"}},
		{"inductx", []string{"-workers", "-1", "nonexistent.json"}},
		// Sweep-mode enum and tolerance validation: unknown modes and
		// non-positive tolerances fail in milliseconds.
		{"rlsweep", []string{"-sweep", "spline"}},
		{"rlsweep", []string{"-sweeptol", "-2"}},
		{"rlsweep", []string{"-sweeptol", "0"}},
		// Plane mesh density: shared mesh.ValidatePlaneNW range check,
		// rejected before any geometry is lowered.
		{"rlsweep", []string{"-planenw", "1"}},
		{"rlsweep", []string{"-planenw", "-4"}},
		// A plane density with no plane to mesh would be ignored.
		{"rlsweep", []string{"-planenw", "40", "-points", "2"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.tool+"/"+tc.args[0]+"="+tc.args[1], func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(filepath.Join(dir, tc.tool), tc.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			if err == nil {
				t.Fatalf("%s %v exited zero on a bad enum value", tc.tool, tc.args)
			}
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("%s %v did not run: %v", tc.tool, tc.args, err)
			}
			msg := strings.TrimRight(stderr.String(), "\n")
			if msg == "" {
				t.Fatalf("%s %v printed nothing to stderr", tc.tool, tc.args)
			}
			if strings.Contains(msg, "\n") {
				t.Errorf("%s %v error is not one line:\n%s", tc.tool, tc.args, msg)
			}
			bad := tc.args[1]
			if !strings.Contains(msg, bad) {
				t.Errorf("%s %v error does not name the bad value %q: %q", tc.tool, tc.args, bad, msg)
			}
			// Fail-fast: the bad flag must be rejected before the tool
			// tries (and fails) to open the nonexistent input file.
			if strings.Contains(msg, "nonexistent.json") {
				t.Errorf("%s %v validated the flag only after touching the input: %q", tc.tool, tc.args, msg)
			}
		})
	}
}

// TestRLSweepAdaptiveVerbose runs an adaptive sweep end to end: the CSV
// must carry the interp column, a majority of rows must be
// interpolated, and -v must report the anchor/interpolation split.
func TestRLSweepAdaptiveVerbose(t *testing.T) {
	dir := buildTools(t)
	cmd := exec.Command(filepath.Join(dir, "rlsweep"),
		"-sweep", "adaptive", "-sweeptol", "1e-6", "-points", "96", "-workers", "2", "-v")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("rlsweep -sweep adaptive failed: %v\nstderr:\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 97 || lines[0] != "freq_hz,r_ohm,l_h,interp" {
		t.Fatalf("unexpected adaptive CSV shape (%d lines, header %q)", len(lines), lines[0])
	}
	interp := 0
	for _, ln := range lines[1:] {
		if strings.HasSuffix(ln, ",1") {
			interp++
		} else if !strings.HasSuffix(ln, ",0") {
			t.Fatalf("row without interp column: %q", ln)
		}
	}
	if interp < 48 {
		t.Errorf("only %d of 96 rows interpolated", interp)
	}
	if !strings.Contains(stderr.String(), "adaptive sweep:") {
		t.Errorf("-v does not report the adaptive anchor split:\n%s", stderr.String())
	}
}

// TestRLSweepNestedSolver runs the builtin structure through the
// nested-basis path end to end: the flag must be accepted, the CSV must
// come out well-formed, and the verbose diagnostics must name the
// nested operator and its rank histogram.
func TestRLSweepNestedSolver(t *testing.T) {
	dir := buildTools(t)
	cmd := exec.Command(filepath.Join(dir, "rlsweep"),
		"-solver", "nested", "-workers", "2", "-points", "3", "-v")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("rlsweep -solver nested failed: %v\nstderr:\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 4 || lines[0] != "freq_hz,r_ohm,l_h" {
		t.Fatalf("unexpected CSV shape:\n%s", stdout.String())
	}
	diag := stderr.String()
	if !strings.Contains(diag, "solver nested") {
		t.Errorf("-v does not report the nested solve mode:\n%s", diag)
	}
	if !strings.Contains(diag, "nested-basis operator") {
		t.Errorf("-v does not report nested-basis operator stats:\n%s", diag)
	}
	if !strings.Contains(diag, "kernel evaluations:") {
		t.Errorf("-v does not report the near/far kernel-evaluation split:\n%s", diag)
	}
	if !strings.Contains(diag, "GMRES iterations") {
		t.Errorf("-v does not report GMRES iteration counts:\n%s", diag)
	}
}

// TestClocksimStrategiesRunsCombinedTechnique pins the last row of
// clocksim -strategies to the paper's combined technique (§4):
// block-diagonal sparsification followed by PRIMA, not full-L + PRIMA.
func TestClocksimStrategiesRunsCombinedTechnique(t *testing.T) {
	dir := buildTools(t)
	cmd := exec.Command(filepath.Join(dir, "clocksim"), "-strategies")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("clocksim -strategies failed: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "PEEC(block-diag)+PRIMA") {
		t.Errorf("no PEEC(block-diag)+PRIMA row:\n%s", out)
	}
	if strings.Contains(out, "PEEC(RLC)+PRIMA") {
		t.Errorf("full-L PEEC(RLC)+PRIMA row still printed:\n%s", out)
	}
}
