// Command bench is the repository benchmark. One run executes one
// workload: it sets the workload up several times, runs it for a fixed
// window, checks its outputs against independent references, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics in an untraced run, the per-layer
// metrics in a traced one.
//
// Usage (bench/run.sh builds the binary and passes its arguments on):
//
//	bench --workload table1 --seed 1 [--seconds 15] [--trace 0|1] [--out DIR] [--spans FILE]
//	bench compare BASE_DIR HEAD_DIR
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run sets its workload up at least setupReps times, and keeps going
// until setupSeconds have passed or setupMaxReps is reached; setup_s is
// the median, so cheap set-ups get enough repetitions for a steady
// number and one slow set-up does not move it.
const (
	setupReps    = 5
	setupSeconds = 0.5
	setupMaxReps = 200
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds the inputs, replacing those of an earlier call; iter
	// is the negative id its spans carry.
	setup(e *env, iter int) error
	// measure runs units of work until the deadline (at least one) and
	// returns the wall time of each that succeeded, in seconds.
	measure(e *env, deadline time.Time) (samples []float64, attempted, failed int)
	// gate checks the last outputs against an independent reference.
	gate(e *env) error
	// traceExtras adds per-layer values that need extra work, such as a
	// serial rerun for a parallel efficiency; it runs only when tracing,
	// after the window, with the window's spans.
	traceExtras(e *env, spans []span) error
	close()
}

// env carries a run's settings to its workload.
type env struct {
	seed    int64
	workers int
	tr      *tracer
	log     io.Writer
	// extras holds per-layer values a workload derives itself rather
	// than from spans.
	extras map[string]float64
}

// rand returns a generator seeded by the run's seed. Every call starts
// the same sequence, so each set-up repetition builds the same inputs.
func (e *env) rand() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }

// closedLoop runs op back to back until the deadline, at least once.
// A failed op is counted and reported, and the loop goes on.
func closedLoop(e *env, deadline time.Time, op func(iter int) error) (samples []float64, attempted, failed int) {
	for iter := 0; attempted == 0 || time.Now().Before(deadline); iter++ {
		t0 := time.Now()
		err := op(iter)
		d := time.Since(t0).Seconds()
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(e.log, "bench: op %d failed: %v\n", iter, err)
			continue
		}
		samples = append(samples, d)
	}
	return samples, attempted, failed
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured; --out writes it as a file and
// the compare command reads such files.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Machine   machineInfo            `json:"machine"`
	Correct   bool                   `json:"correct"`
	GateError string                 `json:"gate_error,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Window    float64                `json:"window_s"`
	GateTime  float64                `json:"gate_s"`
	Ops       summary                `json:"op_seconds"`
	Setup     summary                `json:"setup_seconds"`
	Metrics   map[string]metricValue `json:"metrics"`

	spans []span
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setupReps and setupSeconds bound the set-up repetitions (see the
	// constants above).
	setupReps    int
	setupSeconds float64
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// run executes one workload: set-up repetitions, the timed window, the
// correctness gate and, when tracing, the per-layer extras.
func run(cfg runConfig, log io.Writer) (*result, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	e := &env{
		seed:    cfg.seed,
		workers: runtime.NumCPU(),
		tr:      newTracer(cfg.trace),
		log:     log,
		extras:  map[string]float64{},
	}
	w := def.make()
	defer w.close()

	var setupTimes []float64
	setupStart := time.Now()
	for k := 0; k < cfg.setupReps || (k < setupMaxReps && time.Since(setupStart).Seconds() < cfg.setupSeconds); k++ {
		t0 := time.Now()
		if err := w.setup(e, -1-k); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	// Start the window from a collected heap, so garbage left by set-up
	// is not charged to the first op.
	runtime.GC()
	start := time.Now()
	samples, attempted, failed := w.measure(e, start.Add(time.Duration(cfg.seconds*float64(time.Second))))
	window := time.Since(start)
	rss := peakRSSMB()
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: all %d ops failed", cfg.workload, attempted)
	}

	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Machine:   newMachineInfo(e.workers, cfg.seed),
		Correct:   true,
		Attempted: attempted, Failed: failed,
		Window:  window.Seconds(),
		Ops:     summarize(samples),
		Setup:   summarize(setupTimes),
		Metrics: map[string]metricValue{},
	}
	gateStart := time.Now()
	if err := w.gate(e); err != nil {
		res.Correct, res.GateError = false, err.Error()
	}
	res.GateTime = time.Since(gateStart).Seconds()
	if !cfg.trace {
		res.Metrics["op_p50_ms"] = metricValue{res.Ops.Median * 1e3, "ms"}
		res.Metrics["setup_s"] = metricValue{res.Setup.Median, "s"}
		res.Metrics["peak_rss_mb"] = metricValue{rss, "MB"}
		return res, nil
	}

	overhead := e.tr.cost.Seconds() / window.Seconds()
	res.spans = e.tr.finished()
	if err := w.traceExtras(e, res.spans); err != nil {
		return nil, fmt.Errorf("%s trace extras: %w", cfg.workload, err)
	}
	vals := layerValues(res.spans, metricNames(perLayer))
	for k, v := range e.extras {
		vals[k] = v
	}
	vals["trace.overhead_frac"] = overhead
	for _, d := range perLayer {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return res, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 15, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	outDir := fs.String("out", "", "directory to write the full result file into (for compare)")
	spansPath := fs.String("spans", "", "file the span tree of a traced run is written to (default .bench_build/spans/WORKLOAD-seedN.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if !(*seconds >= 0) {
		fmt.Fprintf(stderr, "bench: --seconds must be non-negative, got %g\n", *seconds)
		return 2
	}
	fmt.Fprintf(stdout, "bench: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	res, err := run(runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, setupReps: setupReps, setupSeconds: setupSeconds}, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printResult(stdout, res)

	if res.Trace {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", res.Workload, res.Seed))
		}
		if err := writeJSON(path, struct {
			Workload string      `json:"workload"`
			Seed     int64       `json:"seed"`
			Machine  machineInfo `json:"machine"`
			Spans    []span      `json:"spans"`
		}{res.Workload, res.Seed, res.Machine, res.spans}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(res.spans), path)
	}
	if *outDir != "" {
		path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", res.Workload, res.Seed, *trace, time.Now().UnixNano()))
		if err := writeJSON(path, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(last))
	if !res.Correct {
		fmt.Fprintln(stderr, "bench: correctness gate failed:", res.GateError)
		return 1
	}
	return 0
}

func printResult(w io.Writer, res *result) {
	m := res.Machine
	fmt.Fprintf(w, "machine: cpu=%q nproc=%d gomaxprocs=%d go=%s workers=%d commit=%s\n",
		m.CPUModel, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Workers, m.Commit)
	fmt.Fprintf(w, "ops: %d attempted, %d failed, %.2f s window\n", res.Attempted, res.Failed, res.Window)
	line := func(name string, s summary, scale float64, unit string) {
		fmt.Fprintf(w, "  %-12s n=%-4d median=%.6g %s  q1=%.6g q3=%.6g spread=%.3f",
			name, s.N, s.Median*scale, unit, s.Q1*scale, s.Q3*scale, s.spread())
		if s.TailPct > 0 {
			fmt.Fprintf(w, "  p%g=%.6g %s", s.TailPct, s.Tail*scale, unit)
		}
		fmt.Fprintln(w)
	}
	line("op", res.Ops, 1e3, "ms")
	line("setup", res.Setup, 1, "s")
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if res.Correct {
		fmt.Fprintf(w, "gate: ok (%.2f s)\n", res.GateTime)
	} else {
		fmt.Fprintf(w, "gate: FAILED (%.2f s): %s\n", res.GateTime, res.GateError)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
