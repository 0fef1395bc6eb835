package core

import (
	"context"
	"fmt"
	"time"

	"inductance101/internal/circuit"
	"inductance101/internal/engine"
	"inductance101/internal/grid"
	"inductance101/internal/matrix"
	"inductance101/internal/mor"
	"inductance101/internal/sim"
	"inductance101/internal/sparsify"
)

// Strategy selects how the partial inductance matrix enters the PEEC
// simulation.
type Strategy int

// PEEC flow strategies (the §4 menu).
const (
	// StrategyRC drops inductance entirely — Table 1's "PEEC (RC)".
	StrategyRC Strategy = iota
	// StrategyFull keeps the dense partial inductance matrix —
	// "PEEC (RLC)".
	StrategyFull
	// StrategyBlockDiag applies block-diagonal sparsification.
	StrategyBlockDiag
	// StrategyShell applies the shell shift-truncate method.
	StrategyShell
	// StrategyHalo applies the return-limited halo method.
	StrategyHalo
	// StrategyTruncate applies naive truncation (for the instability
	// ablation; may produce a non-passive model on purpose).
	StrategyTruncate
	// StrategyKMatrix inverts the partial inductance matrix into the
	// K (inverse inductance) element of Devgan et al., sparsified by
	// windowed local inversion, and simulates with the K-group stamp.
	StrategyKMatrix
)

// String names the strategy for reports.
func (s Strategy) String() string {
	switch s {
	case StrategyRC:
		return "PEEC(RC)"
	case StrategyFull:
		return "PEEC(RLC)"
	case StrategyBlockDiag:
		return "PEEC(block-diag)"
	case StrategyShell:
		return "PEEC(shell)"
	case StrategyHalo:
		return "PEEC(halo)"
	case StrategyTruncate:
		return "PEEC(truncated)"
	case StrategyKMatrix:
		return "PEEC(K-matrix)"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// FlowOptions configures one PEEC simulation flow.
type FlowOptions struct {
	Strategy Strategy
	// Sections for block-diagonal; ShellRadius for shell;
	// TruncThreshold for truncation; KWindow for the windowed
	// K-matrix inversion.
	Sections       int
	ShellRadius    float64
	TruncThreshold float64
	KWindow        int
	// UsePRIMA reduces the linear part before transient simulation —
	// the paper's combined technique. Background sources are excluded
	// in this mode (the active-port refinement).
	UsePRIMA    bool
	PrimaBlocks int
	// Transient window.
	TStop, TStep float64
}

// DefaultFlowOptions fills the transient window for the default case.
func DefaultFlowOptions(s Strategy) FlowOptions {
	return FlowOptions{
		Strategy:       s,
		Sections:       4,
		ShellRadius:    150e-6,
		KWindow:        8,
		TruncThreshold: 0.1,
		PrimaBlocks:    16,
		TStop:          2.5e-9,
		TStep:          2e-12,
	}
}

// FlowResult carries the waveforms, metrics and costs of one flow.
type FlowResult struct {
	Name  string
	Times []float64
	// SinkV[k] is sink k's waveform; RootV the driver output.
	SinkV [][]float64
	RootV []float64

	Delays     []float64 // per-sink 50% delay from the input transition
	WorstDelay float64
	Skew       float64
	Overshoot  float64 // worst overshoot above Vdd across sinks

	Stats       circuit.Stats
	MutualCount int
	// KeptFraction and PositiveDefinite report the sparsification audit
	// (1 and true for full/RC).
	KeptFraction     float64
	PositiveDefinite bool
	ReducedOrder     int // PRIMA order, 0 if unused
	Runtime          time.Duration
	// Stages is the pipeline's per-stage wall-time/diagnostic log.
	Stages []engine.StageStat
}

// RunPEEC executes the detailed-model flow with the chosen §4 options.
func (c *ClockCase) RunPEEC(opt FlowOptions) (*FlowResult, error) {
	return c.RunPEECCtx(context.Background(), opt)
}

// RunPEECCtx is RunPEEC under a context: the flow runs its stages
// (sparsify → model → [mor] → sim → measure) through the case
// session's pipeline, stopping at the first stage whose turn comes
// after ctx is cancelled and recording per-stage wall time and
// diagnostics in FlowResult.Stages.
func (c *ClockCase) RunPEECCtx(ctx context.Context, opt FlowOptions) (*FlowResult, error) {
	start := time.Now()
	pipe := c.session().Pipeline()
	res := &FlowResult{Name: opt.Strategy.String(), KeptFraction: 1, PositiveDefinite: true}
	if opt.UsePRIMA {
		res.Name += "+PRIMA"
	}
	defer func() {
		res.Stages = pipe.Stages()
		res.Runtime = time.Since(start)
	}()

	var lOverride, kOverride *matrix.Dense
	lay := c.Grid.Layout
	if err := pipe.Run(ctx, "sparsify", func(context.Context) (string, error) {
		switch opt.Strategy {
		case StrategyRC:
			return "", nil
		case StrategyFull:
			// The full model keeps every mutual, so its L is the
			// extracted partial L itself: a transient on a non-PD L is
			// unstable, so the flow stops here instead.
			res.PositiveDefinite = matrix.IsPositiveDefinite(c.Par.L)
			if !res.PositiveDefinite {
				return "", fmt.Errorf("core: %s: partial L is not positive definite", res.Name)
			}
			return "partial L positive definite", nil
		case StrategyBlockDiag:
			sec := sparsify.SectionsByCrossCoordinate(lay, c.Par.Segs, opt.Sections)
			r := sparsify.BlockDiagonal(c.Par.L, sec)
			lOverride, res.KeptFraction, res.PositiveDefinite = r.L, r.KeptFraction, r.PositiveDefinite
		case StrategyShell:
			r := sparsify.Shell(lay, c.Par.Segs, c.Par.L, opt.ShellRadius)
			lOverride, res.KeptFraction, res.PositiveDefinite = r.L, r.KeptFraction, r.PositiveDefinite
		case StrategyHalo:
			r := sparsify.Halo(lay, c.Par.Segs, c.Par.L, func(net string) bool {
				return net == "GND" || net == "VDD"
			})
			lOverride, res.KeptFraction, res.PositiveDefinite = r.L, r.KeptFraction, r.PositiveDefinite
		case StrategyTruncate:
			r := sparsify.Truncate(c.Par.L, opt.TruncThreshold)
			lOverride, res.KeptFraction, res.PositiveDefinite = r.L, r.KeptFraction, r.PositiveDefinite
		case StrategyKMatrix:
			k, err := sparsify.WindowedK(c.Par.L, opt.KWindow)
			if err != nil {
				return "", fmt.Errorf("core: windowed K: %w", err)
			}
			kOverride = k
			res.PositiveDefinite = matrix.IsPositiveDefinite(k)
			n := k.Rows()
			kept := 0
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j && k.At(i, j) != 0 {
						kept++
					}
				}
			}
			if n > 1 {
				res.KeptFraction = float64(kept) / float64(n*(n-1))
			}
		default:
			return "", fmt.Errorf("core: unknown strategy %d", opt.Strategy)
		}
		return fmt.Sprintf("kept %.3g of mutuals", res.KeptFraction), nil
	}); err != nil {
		return nil, err
	}

	var p *grid.PEECNetlist
	var n *circuit.Netlist
	if err := pipe.Run(ctx, "model", func(context.Context) (string, error) {
		mode := grid.ModeRLC
		if opt.Strategy == StrategyRC {
			mode = grid.ModeRC
		}
		var err error
		p, err = grid.BuildPEECNetlist(lay, c.Par, grid.PEECOptions{
			Mode: mode, LOverride: lOverride, KOverride: kOverride,
		})
		if err != nil {
			return "", err
		}
		n = p.Netlist
		res.MutualCount = p.MutualCount
		// Interconnect element counts (Table 1 rows) are captured before
		// the environment (package, decap, sources) is attached.
		res.Stats = n.Stats()
		return fmt.Sprintf("%d mutuals", res.MutualCount), nil
	}); err != nil {
		return nil, err
	}

	if opt.UsePRIMA {
		if err := c.runPRIMA(ctx, pipe, n, p, opt, res); err != nil {
			return nil, err
		}
	} else {
		if err := pipe.Run(ctx, "sim", func(context.Context) (string, error) {
			if err := c.attachEnvironment(n, true, true, true); err != nil {
				return "", err
			}
			tr, err := sim.Tran(n, sim.TranOptions{
				TStop: opt.TStop, TStep: opt.TStep,
				Policy: c.session().SimPolicy(),
			})
			if err != nil {
				return "", fmt.Errorf("core: %s transient: %w", res.Name, err)
			}
			res.Times = tr.Times
			res.RootV = tr.MustV(c.Clock.Root)
			for _, s := range c.Clock.Sinks {
				res.SinkV = append(res.SinkV, tr.MustV(s))
			}
			return fmt.Sprintf("%d steps", len(tr.Times)), nil
		}); err != nil {
			return nil, err
		}
	}
	if err := pipe.Run(ctx, "measure", func(context.Context) (string, error) {
		if err := c.measure(res); err != nil {
			return "", fmt.Errorf("core: %s: %w", res.Name, err)
		}
		return "", nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// runPRIMA reduces the linear PEEC model (driver Norton-folded, no
// background sources) and simulates the reduced system, as the "mor"
// and "sim" stages of the flow pipeline.
func (c *ClockCase) runPRIMA(ctx context.Context, pipe *engine.Pipeline, n *circuit.Netlist, p *grid.PEECNetlist, opt FlowOptions, res *FlowResult) error {
	var rm *mor.ReducedModel
	if err := pipe.Run(ctx, "mor", func(context.Context) (string, error) {
		// Environment without driver, background, or supply source: PRIMA
		// needs a source-free linear system, so both the driver and the
		// external supply enter as Norton current injections.
		if err := c.attachEnvironment(n, false, false, false); err != nil {
			return "", err
		}
		// Driver as Norton: R from root to the local ground node stays in
		// the linear system; the current injection I(t) = V(t)/R drives the
		// (root, gnd) port pair.
		n.AddR("rdrv", c.Clock.Root, c.DriverGnd, c.Opt.DriverR)
		// The linear system is simulated incrementally around the DC
		// operating point (superposition): at rest the clock net sits at 0V
		// and the supply at Vdd, so the only nonzero incremental input is
		// the driver transition. The ideal supply is a short for
		// increments — a stiff anchor resistor on vdd_ext models it.
		n.AddR("rext", "vdd_ext", circuit.Ground, 1e-3)

		m := circuit.BuildSparse(n)
		rootIdx, err := n.NodeIndex(c.Clock.Root)
		if err != nil {
			return "", err
		}
		gndIdx, err := n.NodeIndex(c.DriverGnd)
		if err != nil {
			return "", err
		}
		var observe []int
		observe = append(observe, rootIdx)
		for _, s := range c.Clock.Sinks {
			si, err := n.NodeIndex(s)
			if err != nil {
				return "", err
			}
			observe = append(observe, si)
		}
		ports := []mor.Port{{Plus: rootIdx, Minus: gndIdx}}
		rm, err = mor.Reduce(m, ports, observe, mor.Options{Blocks: opt.PrimaBlocks})
		if err != nil {
			return "", err
		}
		res.ReducedOrder = rm.Order()
		return fmt.Sprintf("order %d", rm.Order()), nil
	}); err != nil {
		return err
	}

	return pipe.Run(ctx, "sim", func(context.Context) (string, error) {
		wave := c.InputWave()
		tr, err := rm.Tran(func(t float64) []float64 {
			return []float64{wave.At(t) / c.Opt.DriverR}
		}, opt.TStop, opt.TStep)
		if err != nil {
			return "", err
		}
		res.Times = tr.Times
		res.RootV = make([]float64, len(tr.Times))
		res.SinkV = make([][]float64, len(c.Clock.Sinks))
		for k := range c.Clock.Sinks {
			res.SinkV[k] = make([]float64, len(tr.Times))
		}
		for ti, y := range tr.Outputs {
			res.RootV[ti] = y[0]
			for k := range c.Clock.Sinks {
				res.SinkV[k][ti] = y[1+k]
			}
		}
		return fmt.Sprintf("%d steps", len(tr.Times)), nil
	})
}

// measure fills the delay/skew/overshoot metrics from the waveforms.
//
// PRIMA transients start from a zero state rather than the DC operating
// point, so sink waveforms may begin away from their settled low value;
// delay crossings are still well-defined because the clock transition
// dominates.
func (c *ClockCase) measure(res *FlowResult) error {
	t50 := c.InputT50()
	mid := c.Opt.Vdd / 2
	res.Delays = res.Delays[:0]
	for k, v := range res.SinkV {
		tc, err := sim.CrossTime(res.Times, v, mid, true)
		if err != nil {
			return fmt.Errorf("sink %d: %w", k, err)
		}
		res.Delays = append(res.Delays, tc-t50)
		if ov := sim.Overshoot(v, c.Opt.Vdd); ov > res.Overshoot {
			res.Overshoot = ov
		}
	}
	for _, d := range res.Delays {
		if d > res.WorstDelay {
			res.WorstDelay = d
		}
	}
	res.Skew = sim.Skew(res.Delays)
	return nil
}
