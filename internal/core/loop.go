package core

import (
	"context"
	"fmt"
	"time"

	"inductance101/internal/circuit"
	"inductance101/internal/fasthenry"
	"inductance101/internal/loopmodel"
	"inductance101/internal/sim"
)

// LoopOptions configures the §5 loop-inductance flow.
type LoopOptions struct {
	// FLow and FHigh are the two extraction frequencies for the ladder
	// fit (Fig. 3(d)).
	FLow, FHigh float64
	// Ladder selects the frequency-dependent ladder model; false uses
	// the single-frequency R+L of Fig. 3(c), extracted at FLow (FHigh
	// then only sets the mesh's reference frequency).
	Ladder bool
	// RCSegments splits the per-sink loop R/L into this many RLC-π
	// sections ("the lumped representation can be improved by
	// increasing the number of RLC-π segments"); 1 = fully lumped.
	RCSegments int
	// Transient window.
	TStop, TStep float64
}

// DefaultLoopOptions matches the default case's band.
func DefaultLoopOptions() LoopOptions {
	return LoopOptions{
		FLow: 2e8, FHigh: 1e10,
		Ladder:     true,
		RCSegments: 1,
		TStop:      2.5e-9, TStep: 2e-12,
	}
}

// RunLoop executes the loop-inductance flow: per-sink loop extraction
// with the receiver shorted to local ground (FastHenry style), ladder
// fit, lumped-capacitance netlist, SPICE-lite simulation. Per the
// paper, all interconnect and load capacitance is lumped at the
// receiver ends; the measured run time includes extraction and fitting.
func (c *ClockCase) RunLoop(opt LoopOptions) (*FlowResult, error) {
	return c.RunLoopCtx(context.Background(), opt)
}

// RunLoopCtx is RunLoop under a context, staged through the session's
// pipeline (extract → model → sim → measure) like RunPEECCtx.
func (c *ClockCase) RunLoopCtx(ctx context.Context, opt LoopOptions) (*FlowResult, error) {
	start := time.Now()
	if opt.FLow <= 0 || opt.FHigh <= opt.FLow {
		return nil, fmt.Errorf("core: bad loop extraction band [%g, %g]", opt.FLow, opt.FHigh)
	}
	if opt.RCSegments <= 0 {
		opt.RCSegments = 1
	}
	pipe := c.session().Pipeline()
	res := &FlowResult{Name: "LOOP(RLC)", KeptFraction: 1, PositiveDefinite: true}
	defer func() {
		res.Stages = pipe.Stages()
		res.Runtime = time.Since(start)
	}()

	lay := c.Grid.Layout
	segs := append([]int(nil), c.Clock.Segs...)
	segs = append(segs, c.gndSegs()...)

	// Per-sink ladder extraction: one solver over the unshorted mesh,
	// each sink's receiver-to-ground short applied per solve, both
	// ladder frequencies in one call.
	ladders := make([]loopmodel.Ladder, len(c.Clock.Sinks))
	if err := pipe.Run(ctx, "extract", func(context.Context) (string, error) {
		shorts := make([][2]string, len(c.Clock.Sinks))
		for k, sink := range c.Clock.Sinks {
			x, y, err := c.sinkPosition(sink)
			if err != nil {
				return "", err
			}
			shorts[k] = [2]string{sink, c.nearestGndNode(x, y)}
		}
		fhOpt := c.session().SolverOptions()
		fhOpt.MaxPerSide = 2
		solver, err := fasthenry.NewSolver(lay, segs,
			fasthenry.Port{Plus: c.Clock.Root, Minus: c.DriverGnd},
			nil, opt.FHigh, fhOpt)
		if err != nil {
			return "", fmt.Errorf("core: loop extraction: %w", err)
		}
		freqs := []float64{opt.FLow}
		if opt.Ladder {
			freqs = append(freqs, opt.FHigh)
		}
		z, err := solver.ImpedanceEachShort(freqs, shorts)
		if err != nil {
			return "", fmt.Errorf("core: loop extraction: %w", err)
		}
		for k := range ladders {
			if !opt.Ladder {
				r, l := loopmodel.SingleFrequencyRL(z[0][k], opt.FLow)
				ladders[k] = loopmodel.Ladder{R0: r, L0: l}
			} else if ladders[k], err = loopmodel.FitTwoPoint(z[0][k], opt.FLow, z[1][k], opt.FHigh); err != nil {
				return "", err
			}
		}
		return fmt.Sprintf("%d sink loops", len(ladders)), nil
	}); err != nil {
		return nil, err
	}

	// Netlist: per-sink ladder with the lumped capacitance at the
	// receiver; interconnect element counts are captured before the
	// driver is added (they are the Table 1 rows).
	n := circuit.New()
	if err := pipe.Run(ctx, "model", func(context.Context) (string, error) {
		cWire := c.TotalClockInterconnectCap() / float64(len(c.Clock.Sinks))
		for k := range c.Clock.Sinks {
			sinkNode := fmt.Sprintf("sink%d", k)
			stampLadderSegments(n, ladders[k], opt.RCSegments, cWire+c.SinkLoad(k),
				fmt.Sprintf("loop%d", k), "root", sinkNode)
		}
		res.Stats = n.Stats()
		n.AddV("vdrv", "drv_src", circuit.Ground, c.InputWave())
		n.AddR("rdrv", "drv_src", "root", c.Opt.DriverR)
		return "", nil
	}); err != nil {
		return nil, err
	}

	if err := pipe.Run(ctx, "sim", func(context.Context) (string, error) {
		tr, err := sim.Tran(n, sim.TranOptions{
			TStop: opt.TStop, TStep: opt.TStep,
			Policy: c.session().SimPolicy(),
		})
		if err != nil {
			return "", fmt.Errorf("core: loop transient: %w", err)
		}
		res.Times = tr.Times
		res.RootV = tr.MustV("root")
		for k := range c.Clock.Sinks {
			res.SinkV = append(res.SinkV, tr.MustV(fmt.Sprintf("sink%d", k)))
		}
		return fmt.Sprintf("%d steps", len(tr.Times)), nil
	}); err != nil {
		return nil, err
	}

	if err := pipe.Run(ctx, "measure", func(context.Context) (string, error) {
		if err := c.measure(res); err != nil {
			return "", fmt.Errorf("core: loop: %w", err)
		}
		return "", nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// stampLadderSegments distributes a ladder and the lumped capacitance
// over nSeg RLC-π sections between nodes a and b.
func stampLadderSegments(n *circuit.Netlist, ld loopmodel.Ladder, nSeg int, cTotal float64, prefix, a, b string) {
	if nSeg <= 1 {
		ld.Stamp(n, prefix, a, b)
		n.AddC(prefix+".cl", b, circuit.Ground, cTotal)
		return
	}
	// Split the ladder values evenly across sections, with the
	// capacitance spread over section boundaries (π style: interior
	// nodes get full shares, the receiver the final share).
	part := loopmodel.Ladder{R0: ld.R0 / float64(nSeg), L0: ld.L0 / float64(nSeg)}
	for _, s := range ld.Sections {
		part.Sections = append(part.Sections, loopmodel.Section{
			R: s.R / float64(nSeg), L: s.L / float64(nSeg),
		})
	}
	cur := a
	for k := 0; k < nSeg; k++ {
		next := b
		if k < nSeg-1 {
			next = fmt.Sprintf("%s.seg%d", prefix, k)
		}
		part.Stamp(n, fmt.Sprintf("%s.lad%d", prefix, k), cur, next)
		n.AddC(fmt.Sprintf("%s.c%d", prefix, k), next, circuit.Ground, cTotal/float64(nSeg))
		cur = next
	}
}
