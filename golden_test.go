package repro

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// The golden suite pins the observable behavior of every command-line
// tool: each tool's stdout is captured into testdata/golden/<tool>.txt
// and any drift — a changed number, a reordered row, a reworded label —
// fails the test with a diff-friendly message. Regenerate after an
// intentional output change with:
//
//	go test -run TestGolden -update ./...
var update = flag.Bool("update", false, "rewrite golden files from current tool output")

// runtimeRow masks clocksim's wall-clock row, the one nondeterministic
// line in any tool's output.
var runtimeRow = regexp.MustCompile(`(?m)^Run-time.*$`)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildTools compiles all six CLI tools once per test process.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "golden-bin-")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", buildDir+string(os.PathSeparator),
			"./cmd/rlsweep", "./cmd/inductx", "./cmd/clocksim", "./cmd/gridnoise",
			"./cmd/designopt", "./cmd/inductd")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = err
			buildDir = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v\n%s", buildErr, buildDir)
	}
	return buildDir
}

// normalize strips the output rows that legitimately vary run to run.
func normalize(b []byte) []byte {
	return runtimeRow.ReplaceAll(b, []byte("Run-time <masked>"))
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	got = normalize(got)
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create): %v", path, err)
	}
	if string(got) == string(want) {
		return
	}
	gl, wl := splitLines(string(got)), splitLines(string(want))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s drifted at line %d:\n  golden: %q\n  got:    %q\n(rerun with -update if the change is intentional)", path, i+1, w, g)
		}
	}
	t.Fatalf("%s drifted (same lines, different content?)", path)
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func runTool(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s", bin, args, err, out)
	}
	return out
}

func TestGoldenRLSweep(t *testing.T) {
	dir := buildTools(t)
	checkGolden(t, "rlsweep", runTool(t, filepath.Join(dir, "rlsweep")))
}

func TestGoldenRLSweepAdaptive(t *testing.T) {
	dir := buildTools(t)
	// Adaptive sweeps are deterministic: anchor selection depends only
	// on the solved values, dense solves are bit-identical at any
	// worker count, and the CSV carries the interp column.
	checkGolden(t, "rlsweep_adaptive", runTool(t, filepath.Join(dir, "rlsweep"),
		"-sweep", "adaptive", "-sweeptol", "1e-6", "-points", "96", "-workers", "2"))
}

func TestGoldenRLSweepPlane(t *testing.T) {
	dir := buildTools(t)
	// Signal over a first-class conductor plane, lowered through the
	// shared filament mesh; the dense path keeps the CSV deterministic.
	checkGolden(t, "rlsweep_plane", runTool(t, filepath.Join(dir, "rlsweep"),
		"-plane", "-planenw", "8", "-points", "7"))
}

// sampleLayout writes inductx's own sample layout to a temp file, so
// the inductx runs are self-contained.
func sampleLayout(t *testing.T, inductx string) string {
	t.Helper()
	layout := filepath.Join(t.TempDir(), "sample.json")
	if err := os.WriteFile(layout, runTool(t, inductx, "-sample"), 0o644); err != nil {
		t.Fatal(err)
	}
	return layout
}

func TestGoldenInductx(t *testing.T) {
	dir := buildTools(t)
	bin := filepath.Join(dir, "inductx")
	checkGolden(t, "inductx", runTool(t, bin, sampleLayout(t, bin)))
}

// TestGoldenInductxVerbose pins inductx's -v lines at two workers: the
// kernel-cache counters of the dense path, whose parallel assembly has
// workers racing on one key, and the compressed operator's lines under
// -solver iterative.
func TestGoldenInductxVerbose(t *testing.T) {
	bin := filepath.Join(buildTools(t), "inductx")
	layout := sampleLayout(t, bin)
	checkGolden(t, "inductx_verbose", runTool(t, bin, "-v", "-workers", "2", layout))
	checkGolden(t, "inductx_verbose_iterative", runTool(t, bin, "-v", "-workers", "2", "-solver", "iterative", layout))
}

// TestGoldenInductxSpice pins the SPICE deck inductx -spice writes for
// its sample layout, the one flow that exports SPICE. The layout is
// passed as a path relative to the run directory, so the deck's title
// line names no temp dir.
func TestGoldenInductxSpice(t *testing.T) {
	bin := filepath.Join(buildTools(t), "inductx")
	dir := filepath.Dir(sampleLayout(t, bin))
	cmd := exec.Command(bin, "-spice", "deck.sp", "sample.json")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("inductx -spice: %v\n%s", err, out)
	}
	deck, err := os.ReadFile(filepath.Join(dir, "deck.sp"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "inductx_spice", deck)
}

// TestGoldenKernelCacheOff reruns the inductx and clocksim golden
// cases with the kernel cache off. The cache is exact, so each output
// must match its cache-on golden byte for byte. (rlsweep has no cache:
// its filament kernels are computed directly.)
func TestGoldenKernelCacheOff(t *testing.T) {
	if *update {
		t.Skip("the cache-on runs are the ones that write the goldens")
	}
	dir := buildTools(t)
	inductx := filepath.Join(dir, "inductx")
	checkGolden(t, "inductx", runTool(t, inductx, "-kernelcache", "off", sampleLayout(t, inductx)))
	checkGolden(t, "clocksim", runTool(t, filepath.Join(dir, "clocksim"), "-kernelcache", "off"))
}

func TestGoldenClocksim(t *testing.T) {
	dir := buildTools(t)
	checkGolden(t, "clocksim", runTool(t, filepath.Join(dir, "clocksim")))
}

func TestGoldenClocksimScaled(t *testing.T) {
	dir := buildTools(t)
	// The 6x6-grid, 3-level tree: 8 sinks, so the loop flow shorts
	// eight different receivers against one shared extraction.
	checkGolden(t, "clocksim_scaled", runTool(t, filepath.Join(dir, "clocksim"),
		"-nx", "6", "-ny", "6", "-levels", "3"))
}

func TestGoldenGridnoise(t *testing.T) {
	dir := buildTools(t)
	checkGolden(t, "gridnoise", runTool(t, filepath.Join(dir, "gridnoise")))
}

func TestGoldenGridnoiseSynth(t *testing.T) {
	dir := buildTools(t)
	// Streaming synthetic grid, MG static solve, cached-hierarchy
	// transient — deterministic fixed-seed generation end to end.
	checkGolden(t, "gridnoise_synth", runTool(t, filepath.Join(dir, "gridnoise"),
		"-synth", "5000", "-synthtran", "-workers", "2"))
}

func TestGoldenDesignopt(t *testing.T) {
	dir := buildTools(t)
	// Seeded run: net properties and annealing are deterministic.
	checkGolden(t, "designopt", runTool(t, filepath.Join(dir, "designopt")))
}
