// Command clocksim runs the paper's Table 1 experiment: a global clock
// net over a multi-layer power grid, analyzed with the PEEC (RC),
// PEEC (RLC) and loop-inductance models, reporting element counts,
// worst delay, worst skew and run time for each.
//
// Usage:
//
//	clocksim [-nx 4] [-ny 4] [-pitch 400e-6] [-levels 2] [-tstop 2.5e-9]
//	         [-solver auto|dense|iterative|nested] [-strategies]
//	         [-waveforms out.csv]
package main

import (
	"flag"
	"fmt"
	"os"

	"inductance101/internal/core"
	"inductance101/internal/engine"
	"inductance101/internal/fasthenry"
	"inductance101/internal/units"
)

func main() {
	var (
		nx      = flag.Int("nx", 4, "power grid lines per direction (X)")
		ny      = flag.Int("ny", 4, "power grid lines per direction (Y)")
		pitch   = flag.Float64("pitch", 400e-6, "grid pitch in metres")
		levels  = flag.Int("levels", 2, "clock H-tree levels (2^levels sinks)")
		tstop   = flag.Float64("tstop", 0, "transient stop time (s); 0 = default")
		tstep   = flag.Float64("tstep", 0, "transient step (s); 0 = default")
		strats  = flag.Bool("strategies", false, "also run the sparsified/PRIMA strategies")
		wavecsv = flag.String("waveforms", "", "write sink waveforms of each model to this CSV file")
		workers = flag.Int("workers", 0, "solver/extraction goroutine cap (0 = all cores, 1 = serial)")
		solver  = flag.String("solver", "auto", "loop-model branch solve: dense | iterative (flat ACA) | nested (H² bases) | auto")
	)
	flag.Parse()

	// Flags translate into the run config up front; a bad enum value
	// fails before any extraction starts.
	cfg := engine.Config{Workers: *workers}
	mode, err := fasthenry.ParseSolveMode(*solver)
	if err != nil {
		fatal(err)
	}
	cfg.SolveMode = mode

	opt := core.DefaultCaseOptions()
	opt.Engine = cfg
	opt.Grid.NX, opt.Grid.NY = *nx, *ny
	opt.Grid.Pitch = *pitch
	opt.ClockLevels = *levels
	c, err := core.NewClockCase(opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("clock net: %d sinks, %d segments total, %s wire\n",
		len(c.Clock.Sinks), len(c.Grid.Layout.Segments),
		units.FormatSI(c.Grid.Layout.TotalWireLength(), "m"))

	rows, err := core.Table1(c, *tstop, *tstep)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(core.FormatTable1(rows))

	if *strats {
		fmt.Println("\nSparsification / reduction strategies (vs PEEC(RLC)):")
		ref := rows[1].Result
		for _, s := range []struct {
			strategy core.Strategy
			prima    bool
		}{
			{core.StrategyBlockDiag, false}, {core.StrategyShell, false},
			{core.StrategyHalo, false}, {core.StrategyKMatrix, false},
			{core.StrategyBlockDiag, true},
		} {
			fopt := core.DefaultFlowOptions(s.strategy)
			fopt.UsePRIMA = s.prima
			if *tstop > 0 {
				fopt.TStop = *tstop
			}
			if *tstep > 0 {
				fopt.TStep = *tstep
			}
			r, err := c.RunPEEC(fopt)
			if err != nil {
				fatal(err)
			}
			report(r, ref)
		}
	}

	if *wavecsv != "" {
		f, err := os.Create(*wavecsv)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		fmt.Fprintf(f, "time_s")
		for _, r := range rows {
			for k := range r.Result.SinkV {
				fmt.Fprintf(f, ",%s_sink%d", r.Model, k)
			}
		}
		fmt.Fprintln(f)
		n := len(rows[0].Result.Times)
		for i := 0; i < n; i++ {
			fmt.Fprintf(f, "%g", rows[0].Result.Times[i])
			for _, r := range rows {
				for k := range r.Result.SinkV {
					if i < len(r.Result.Times) {
						fmt.Fprintf(f, ",%g", r.Result.SinkV[k][i])
					} else {
						fmt.Fprintf(f, ",")
					}
				}
			}
			fmt.Fprintln(f)
		}
		fmt.Printf("\nwaveforms written to %s\n", *wavecsv)
	}
}

func report(r, ref *core.FlowResult) {
	dd := r.WorstDelay - ref.WorstDelay
	fmt.Printf("  %-22s kept %5.1f%% mutuals, PD=%-5v delay %s (%s vs full), skew %s, order %d, %v\n",
		r.Name, r.KeptFraction*100, r.PositiveDefinite,
		units.FormatSI(r.WorstDelay, "s"), units.FormatSI(dd, "s"),
		units.FormatSI(r.Skew, "s"), r.ReducedOrder, r.Runtime.Round(1e6))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clocksim:", err)
	os.Exit(1)
}
