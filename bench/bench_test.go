package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"inductance101/internal/core"
	"inductance101/internal/fasthenry"
	"inductance101/internal/grid"
	"inductance101/internal/matrix"
)

// TestQuartilesMatchPython pins the cut points to the values Python's
// statistics.quantiles(xs, n=4) gives for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7.5, 0.25, 3, 12, 9, 1, 4}, [3]float64{1, 4, 9}},
		{[]float64{42}, [3]float64{42, 42, 42}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestTailPercentileRule checks that the reported tail is the highest
// percentile with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return xs
	}
	if _, _, ok := tailPercentile(seq(19)); ok {
		t.Error("19 samples: reported a tail, but even the median has only 9 beyond it")
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{20, 50, 10},
		{100, 90, 90},
		{199, 90, 180},
		{200, 95, 190},
		{999, 98, 980},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		pct, val, ok := tailPercentile(seq(c.n))
		if !ok || pct != c.pct || val != c.val {
			t.Errorf("%d samples: got p%g = %g (ok %v), want p%g = %g", c.n, pct, val, ok, c.pct, c.val)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > val {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("%d samples: p%g leaves only %d samples beyond it", c.n, pct, beyond)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children's intervals: overlapping children count once, and a child
// running past its parent counts only inside the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 3},
		{ID: 2, Parent: 0, Name: "b", Start: 2, End: 5},
		{ID: 3, Parent: 0, Name: "c", Start: 8, End: 12},
		{ID: 4, Parent: 2, Name: "b.inner", Start: 2.5, End: 3},
		{ID: 5, Parent: -1, Name: "other", Start: 0, End: 1},
	}
	fillSelfTimes(spans)
	want := []float64{4, 2, 2.5, 4, 0.5, 1}
	for i, s := range spans {
		if math.Abs(s.Self-want[i]) > 1e-12 {
			t.Errorf("span %s: self %g, want %g", s.Name, s.Self, want[i])
		}
	}
}

// TestLayerValues checks the per-layer aggregation: a time metric is the
// median over units of work of the time in spans of its name, a count
// the median over units of work of the counts attached under its name.
func TestLayerValues(t *testing.T) {
	spans := []span{
		{Iter: 0, Name: "x.solve", Start: 0, End: 1, Counts: map[string]float64{"x.iters": 10}},
		{Iter: 0, Name: "x.solve", Start: 1, End: 2, Counts: map[string]float64{"x.iters": 5}},
		{Iter: 1, Name: "x.solve", Start: 2, End: 5, Counts: map[string]float64{"x.iters": 20}},
		{Iter: 2, Name: "x.solve", Start: 5, End: 9},
	}
	got := layerValues(spans, []string{"x.solve_s", "x.iters", "y.absent_s"})
	want := map[string]float64{"x.solve_s": 3, "x.iters": 17.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("layerValues = %v, want %v", got, want)
	}
}

// TestGatesRejectPerturbedReferences checks that each kind of gate
// passes its real reference and fails one perturbed beyond tolerance.
func TestGatesRejectPerturbedReferences(t *testing.T) {
	t.Run("agree", func(t *testing.T) {
		freqs := []float64{1e9, 2e9}
		ref := []complex128{complex(1, 2), complex(3, 4)}
		tol := []float64{1e-6, 1e-6}
		if err := checkAgree("x", freqs, ref, ref, tol); err != nil {
			t.Errorf("identical values: %v", err)
		}
		bad := []complex128{ref[0], ref[1] * (1 + 1e-5)}
		if err := checkAgree("x", freqs, ref, bad, tol); err == nil {
			t.Error("a 1e-5 deviation passed a 1e-6 gate")
		}
	})

	t.Run("table1", func(t *testing.T) {
		flow := func(name string, delay float64) *core.FlowResult {
			return &core.FlowResult{Name: name, WorstDelay: delay, Delays: []float64{delay / 2, delay}}
		}
		rc, rlc := flow("rc", 100e-12), flow("rlc", 120e-12)
		all := []*core.FlowResult{rc, rlc}
		if err := checkTable1(rc, rlc, all, 2); err != nil {
			t.Errorf("RLC slower than RC: %v", err)
		}
		fast := flow("rc", 130e-12)
		if err := checkTable1(fast, rlc, []*core.FlowResult{fast, rlc}, 2); err == nil {
			t.Error("RC reference slower than RLC passed the Table 1 ordering gate")
		}
		if err := checkTable1(rc, rlc, all, 3); err == nil {
			t.Error("a missing sink delay passed the gate")
		}
	})

	t.Run("grid", func(t *testing.T) {
		g, err := grid.Synthesize(grid.DefaultSynthSpec(2000))
		if err != nil {
			t.Fatal(err)
		}
		x, _, err := g.SolveMG(matrix.MGOptions{Workers: 1}, matrix.MGSolveOptions{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		w := &gridWL{g: g, x: x}
		if w.tran, err = w.transient(newTracer(false), -1, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := w.gate(nil); err != nil {
			t.Errorf("converged solves: %v", err)
		}
		w.x = append([]float64(nil), x...)
		w.x[len(x)/2] *= 1 + 1e-6
		if err := w.gate(nil); err == nil {
			t.Error("a perturbed static solution passed the residual gate")
		}
	})

	t.Run("serve", func(t *testing.T) {
		j := &serveJob{wires: smallWires, pitch: servePitch(3)}
		b := serveBus(j.wires, j.pitch)
		freqs := fasthenry.LogSpace(serveFStart, serveFStop, servePoints)
		s, err := fasthenry.NewSolver(b.lay, b.segs, b.port, b.shorts, freqs[len(freqs)-1], fasthenry.Options{Mode: fasthenry.ModeDense, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pts, err := s.Sweep(freqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			j.points = append(j.points, streamLine{FreqHz: p.Freq, ROhm: p.R, LH: p.L})
		}
		if err := checkServeJob(j); err != nil {
			t.Errorf("streamed points equal to a dense solve: %v", err)
		}
		j.points[4].LH *= 1 + 1e-7
		if err := checkServeJob(j); err == nil {
			t.Error("a perturbed streamed point passed the serve gate")
		}
	})
}

// TestWorkloadsSmoke runs one traced op of every workload, with its
// correctness gate, and checks that every metric is reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var log bytes.Buffer
			res, err := run(runConfig{workload: w.Name, seed: 1, seconds: 0, trace: true, setupReps: 1}, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 1 {
				t.Errorf("correct %v (%s), %d of %d failed\n%s", res.Correct, res.GateError, res.Failed, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("reported %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			if len(res.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestBenchmarkJSONMatchesDefinition keeps BENCHMARK.json at the
// repository root identical to the workloads and metrics this program
// reports, and within the limits its readers accept.
func TestBenchmarkJSONMatchesDefinition(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command %v, want %v", doc.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths %v, want %v", doc.Paths, want)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q, want %q with the same why", i, w.Name, workloads[i].Name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, want %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range doc.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("bad workload entry %q", w.Name)
		}
		seen[w.Name] = true
	}
	maxBound := 0.0
	for _, m := range append(append([]metricDef(nil), doc.EndToEnd...), doc.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad metric entry %+v", m)
		}
		seen[m.Name] = true
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %g above 0.25", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	var setup metricDef
	for _, d := range doc.EndToEnd {
		if d.Name == "setup_s" {
			setup = d
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better, with the largest bound; got %+v", setup)
	}
}

// TestCompareVerdicts checks the comparison command's verdicts: a
// regression beyond the bound is WORSE and fails the command, runs that
// spread wider than the bound are unresolved, and noise is the same.
func TestCompareVerdicts(t *testing.T) {
	write := func(dir string, seed int64, p50, rss float64) {
		r := result{Workload: "table1", Seed: seed, Attempted: 10, Metrics: map[string]metricValue{
			"op_p50_ms":   {p50, "ms"},
			"setup_s":     {0.004, "s"},
			"peak_rss_mb": {rss, "MB"},
		}}
		if err := writeJSON(filepath.Join(dir, "r"+string(rune('0'+seed))+".json"), r); err != nil {
			t.Fatal(err)
		}
	}
	base, head := t.TempDir(), t.TempDir()
	for s := int64(1); s <= 5; s++ {
		write(base, s, 700+float64(s), 30+float64(s%2)*20)
		write(head, s, 900+float64(s), 30+float64(s%2)*20)
	}
	var out, errOut bytes.Buffer
	if code := compareMain([]string{base, head}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 for a regression\n%s%s", code, out.String(), errOut.String())
	}
	verdictOf := func(metric string) string {
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == "table1" && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return ""
	}
	for metric, want := range map[string]string{"op_p50_ms": "WORSE", "peak_rss_mb": "unresolved", "setup_s": "same"} {
		if got := verdictOf(metric); got != want {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, got, want, out.String())
		}
	}
	if !strings.Contains(out.String(), "1.2845 (703)") {
		t.Errorf("op_p50_ms ratio not given with its base\n%s", out.String())
	}
}

// TestRunMainRejectsBadArguments checks that bad invocations exit
// non-zero without printing a result line.
func TestRunMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "table1", "--trace", "2"},
		{"--workload", "table1", "--seconds", "-1"},
		{"--workload", "table1", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := runMain(args, &out, &errOut); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
