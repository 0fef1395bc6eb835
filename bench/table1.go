package main

import (
	"fmt"
	"time"

	"inductance101/internal/core"
	"inductance101/internal/engine"
)

// table1WL runs the paper's Table 1 comparison the way a clocksim user
// does: every op builds the 6x6-grid, 3-level clock case from scratch
// under a private kernel cache (a cold CLI run), then runs the four
// flows at their default options.
type table1WL struct {
	sinks   int
	results map[string]*core.FlowResult // the last op's flows by key
}

// table1Flows lists the flows of one op. stages maps each pipeline
// stage the flow reports to the span it is recorded as.
var table1Flows = []struct {
	key    string
	stages map[string]string
	run    func(c *core.ClockCase) (*core.FlowResult, error)
}{
	{"rc", map[string]string{"sparsify": "sparsify.rc", "model": "grid.rc_model", "sim": "sim.rc_tran", "measure": "sim.rc_measure"},
		func(c *core.ClockCase) (*core.FlowResult, error) {
			return c.RunPEEC(core.DefaultFlowOptions(core.StrategyRC))
		}},
	{"rlc", map[string]string{"sparsify": "sparsify.rlc", "model": "grid.rlc_model", "sim": "sim.rlc_tran", "measure": "sim.rlc_measure"},
		func(c *core.ClockCase) (*core.FlowResult, error) {
			return c.RunPEEC(core.DefaultFlowOptions(core.StrategyFull))
		}},
	{"prima", map[string]string{"sparsify": "sparsify.blockdiag", "model": "grid.prima_model", "mor": "mor.prima", "sim": "sim.prima_tran", "measure": "sim.prima_measure"},
		func(c *core.ClockCase) (*core.FlowResult, error) {
			opt := core.DefaultFlowOptions(core.StrategyBlockDiag)
			opt.UsePRIMA = true
			return c.RunPEEC(opt)
		}},
	{"loop", map[string]string{"extract": "fasthenry.loop_extract", "model": "circuit.loop_model", "sim": "sim.loop_tran", "measure": "sim.loop_measure"},
		func(c *core.ClockCase) (*core.FlowResult, error) {
			return c.RunLoop(core.DefaultLoopOptions())
		}},
}

func (w *table1WL) newCase(e *env, parent, iter int) (*core.ClockCase, error) {
	opt := core.DefaultCaseOptions()
	opt.Engine = engine.Config{Workers: e.workers, Cache: engine.CachePrivate}
	opt.Grid.NX, opt.Grid.NY = 6, 6
	opt.ClockLevels = 3
	opt.Seed = e.seed
	id := e.tr.begin(parent, iter, "core.case")
	c, err := core.NewClockCase(opt)
	e.tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	w.sinks = len(c.Clock.Sinks)
	return c, nil
}

func (w *table1WL) setup(e *env, iter int) error {
	_, err := w.newCase(e, -1, iter)
	return err
}

func (w *table1WL) measure(e *env, deadline time.Time) ([]float64, int, int) {
	return closedLoop(e, deadline, func(iter int) error { return w.op(e, iter) })
}

func (w *table1WL) op(e *env, iter int) error {
	root := e.tr.begin(-1, iter, "table1")
	var counts map[string]float64
	defer func() { e.tr.end(root, counts) }()
	c, err := w.newCase(e, root, iter)
	if err != nil {
		return err
	}
	results := map[string]*core.FlowResult{}
	for _, f := range table1Flows {
		id := e.tr.begin(root, iter, "table1."+f.key)
		r, err := f.run(c)
		if err != nil {
			e.tr.end(id, nil)
			return fmt.Errorf("%s flow: %w", f.key, err)
		}
		e.tr.end(id, table1Counts(f.key, r))
		// Stages report wall times only; they ran back to back, so they
		// are laid end to end from the flow's start.
		at := e.tr.startOf(id)
		for _, st := range r.Stages {
			name, ok := f.stages[st.Name]
			if !ok {
				name = f.key + "." + st.Name
			}
			e.tr.add(id, iter, name, at, at+st.Wall.Seconds(), nil)
			at += st.Wall.Seconds()
		}
		results[f.key] = r
	}
	counts = map[string]float64{"extract.cache_hit_rate": c.Sess.CacheStats().HitRate()}
	w.results = results
	return nil
}

func table1Counts(key string, r *core.FlowResult) map[string]float64 {
	switch key {
	case "rlc":
		return map[string]float64{"circuit.rlc_mutuals": float64(r.MutualCount), "sim.tran_steps": float64(len(r.Times))}
	case "prima":
		return map[string]float64{"mor.order": float64(r.ReducedOrder), "sparsify.kept_fraction": r.KeptFraction}
	}
	return nil
}

func (w *table1WL) gate(*env) error {
	var flows []*core.FlowResult
	for _, f := range table1Flows {
		flows = append(flows, w.results[f.key])
	}
	return checkTable1(w.results["rc"], w.results["rlc"], flows, w.sinks)
}

// checkTable1 is the Table 1 gate: inductance slows the clock, so the
// RLC model's worst delay must exceed the RC model's, and in every flow
// every sink must cross 50% of Vdd after the input does.
func checkTable1(rc, rlc *core.FlowResult, flows []*core.FlowResult, sinks int) error {
	if rlc.WorstDelay <= rc.WorstDelay {
		return fmt.Errorf("table1: PEEC(RLC) worst delay %.4g s not above PEEC(RC) %.4g s", rlc.WorstDelay, rc.WorstDelay)
	}
	for _, r := range flows {
		if len(r.Delays) != sinks {
			return fmt.Errorf("table1: %s measured %d of %d sink delays", r.Name, len(r.Delays), sinks)
		}
		for k, d := range r.Delays {
			if !(d > 0) {
				return fmt.Errorf("table1: %s sink %d delay %.4g s is not positive", r.Name, k, d)
			}
		}
	}
	return nil
}

func (w *table1WL) traceExtras(*env, []span) error { return nil }

func (w *table1WL) close() {}
