package main

// The benchmark's definition: its workloads and metrics. BENCHMARK.json
// at the repository root states the same lists; a test keeps the two
// identical.

// metricDef names one reported metric. Bound is the share of a base
// median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	make func() workload
}

var workloads = []workloadDef{
	{"table1", "the paper's Table 1 flows (PEEC RC, RLC, block-diag+PRIMA, LOOP) on a 6x6 grid clock case: sparse and dense MNA transients, mor, sparsify and dense loop extraction",
		func() workload { return &table1WL{} }},
	{"bus_1k", "1024-filament loop bus swept at 201 points: flat-ACA GMRES with the adaptive sweep and Krylov recycling; few nodes, so the per-node solve loop stays small",
		func() workload { return newBus1k() }},
	{"bus_8k", "8192-filament loop bus at 3 exact points: the nested H2 side of the ACA/H2 switch, where the operator build is half of the op",
		func() workload { return newBus8k() }},
	{"plane", "microstrip over a 16x16-cell plane (520 filaments, 258 nodes) at 100 MHz and 20 GHz: the node-bound iterative path, one GMRES per reduced node",
		func() workload { return newPlane() }},
	{"grid", "~101k-node synthetic power grid: multigrid set-up, PCG to 1e-10 and a 100-step cached-hierarchy transient; only matrix and sim do the work",
		func() workload { return &gridWL{} }},
	{"serve", "open-loop 40 jobs/s into an in-process inductd over 2 connections, 2% large batch jobs: decode, queue, scheduler and the warm shared kernel cache",
		func() workload { return &serveWL{} }},
}

// The time bounds are the widest allowed: on the 2-vCPU reference host,
// ten runs of one op spread by up to 0.24 (README.md, Repeatability).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

var perLayer = []metricDef{
	{"trace.overhead_frac", "ratio", "lower", 0},

	// table1: flows, and the pipeline stages each flow reports.
	{"core.case_s", "s", "lower", 0},
	{"table1.rc_s", "s", "lower", 0},
	{"table1.rlc_s", "s", "lower", 0},
	{"table1.prima_s", "s", "lower", 0},
	{"table1.loop_s", "s", "lower", 0},
	{"sim.rc_tran_s", "s", "lower", 0},
	{"sim.rlc_tran_s", "s", "lower", 0},
	{"grid.rlc_model_s", "s", "lower", 0},
	{"sparsify.blockdiag_s", "s", "lower", 0},
	{"mor.prima_s", "s", "lower", 0},
	{"sim.prima_tran_s", "s", "lower", 0},
	{"fasthenry.loop_extract_s", "s", "lower", 0},
	{"sim.loop_tran_s", "s", "lower", 0},
	{"circuit.rlc_mutuals", "count", "lower", 0},
	{"sim.tran_steps", "count", "lower", 0},
	{"mor.order", "count", "lower", 0},
	{"sparsify.kept_fraction", "ratio", "lower", 0},

	// bus_1k, bus_8k, plane: lowering, operator, sweep.
	{"mesh.lower_s", "s", "lower", 0},
	{"mesh.filaments", "count", "lower", 0},
	{"mesh.nodes", "count", "lower", 0},
	{"extract.operator_build_s", "s", "lower", 0},
	{"extract.far_blocks", "count", "lower", 0},
	{"extract.max_rank", "count", "lower", 0},
	{"extract.compression_x", "ratio", "higher", 0},
	{"extract.near_kernel_evals", "count", "lower", 0},
	{"extract.far_kernel_evals", "count", "lower", 0},
	{"extract.kernel_evals_per_dense_entry", "ratio", "lower", 0},
	{"extract.cache_hit_rate", "ratio", "higher", 0},
	{"fasthenry.sweep_s", "s", "lower", 0},
	{"fasthenry.gmres_iters", "count", "lower", 0},
	{"fasthenry.gmres_iters_first", "count", "lower", 0},
	{"fasthenry.gmres_iters_last", "count", "lower", 0},
	{"fasthenry.solved_points", "count", "lower", 0},
	{"fasthenry.sweep_parallel_eff", "ratio", "higher", 0},
	{"sweep.solved_fraction", "ratio", "lower", 0},

	// grid: synthesis, static solve, transient.
	{"grid.synth_s", "s", "lower", 0},
	{"grid.nodes", "count", "lower", 0},
	{"grid.nnz", "count", "lower", 0},
	{"grid.dc_s", "s", "lower", 0},
	{"matrix.mg_setup_s", "s", "lower", 0},
	{"matrix.pcg_s", "s", "lower", 0},
	{"matrix.pcg_iters", "count", "lower", 0},
	{"matrix.mg_levels", "count", "lower", 0},
	{"matrix.mg_op_complexity", "ratio", "lower", 0},
	{"sim.gridtran_s", "s", "lower", 0},
	{"sim.gridtran_pcg_iters", "count", "lower", 0},
	{"sim.gridtran_parallel_eff", "ratio", "higher", 0},

	// serve: client-side timing and /statz deltas over the timed window.
	{"serve.tail_ms", "ms", "lower", 0},
	{"serve.tail_pct", "%", "higher", 0},
	{"serve.small_p50_ms", "ms", "lower", 0},
	{"serve.large_p50_ms", "ms", "lower", 0},
	{"serve.conn_wait_ms", "ms", "lower", 0},
	{"serve.decode_ms", "ms", "lower", 0},
	{"serve.queue_ms", "ms", "lower", 0},
	{"serve.build_ms", "ms", "lower", 0},
	{"serve.sweep_ms", "ms", "lower", 0},
	{"serve.cache_hit_rate", "ratio", "higher", 0},
	{"serve.cache_evictions", "count", "lower", 0},
	{"serve.rejected_429", "count", "lower", 0},
	{"serve.gen_lag_max_ms", "ms", "lower", 0},
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}
