package engine

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"inductance101/internal/fasthenry"
	"inductance101/internal/sweep"
)

func TestZeroConfigInheritsDefaults(t *testing.T) {
	s := New(Config{})
	opt := s.SolverOptions()
	if opt.Mode != fasthenry.ModeAuto || opt.ACATol != 0 || opt.Workers != 0 {
		t.Errorf("zero config minted non-inheriting solver options %+v", opt)
	}
	eo := s.ExtractOptions()
	if eo.CouplingWindow != 3e-6 {
		t.Errorf("ExtractOptions lost the default coupling window: %+v", eo)
	}
	if r := s.CacheStats().HitRate(); r != 0 {
		t.Errorf("CacheStats().HitRate() = %g with no kernel cache, want 0", r)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Workers: -1},
		{ACATol: -1},
		{SolveMode: fasthenry.SolveMode(42)},
		{SweepMode: sweep.Mode(9)},
		{SweepTol: -1e-6},
		{SweepTol: math.NaN()},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted bad config %+v", cfg)
		}
		if _, err := NewChecked(cfg); err == nil {
			t.Errorf("NewChecked accepted bad config %+v", cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	good := []Config{
		{SolveMode: fasthenry.ModeNested},
		{SweepMode: sweep.ModeAdaptive, SweepTol: 1e-8},
		{SweepMode: sweep.ModeExact},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected good config %+v: %v", cfg, err)
		}
	}
}

// TestSweepConfigPlumbing pins that the sweep settings reach their
// one consumer, the fasthenry solver options, and that the CLI
// spellings parse.
func TestSweepConfigPlumbing(t *testing.T) {
	s := New(Config{SweepMode: sweep.ModeAdaptive, SweepTol: 1e-7})
	if opt := s.SolverOptions(); opt.SweepMode != sweep.ModeAdaptive || opt.SweepTol != 1e-7 {
		t.Errorf("SolverOptions dropped sweep config: %+v", opt)
	}
	for _, tc := range []struct {
		in   string
		want sweep.Mode
	}{{"", sweep.ModeAuto}, {"auto", sweep.ModeAuto}, {"exact", sweep.ModeExact}, {"adaptive", sweep.ModeAdaptive}} {
		m, err := ParseSweepMode(tc.in)
		if err != nil || m != tc.want {
			t.Errorf("ParseSweepMode(%q) = %v, %v", tc.in, m, err)
		}
	}
	if _, err := ParseSweepMode("spline"); err == nil {
		t.Error("ParseSweepMode accepted unknown mode")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on an invalid config")
		}
	}()
	New(Config{ACATol: -1})
}

func TestPipelineRunsAndRecords(t *testing.T) {
	p := New(Config{}).Pipeline()
	if err := p.Run(context.Background(), "extract", func(context.Context) (string, error) {
		time.Sleep(time.Millisecond)
		return "3 segments", nil
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := p.Run(context.Background(), "sim", func(context.Context) (string, error) {
		return "", boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("stage error not propagated: %v", err)
	}
	st := p.Stages()
	if len(st) != 2 {
		t.Fatalf("recorded %d stages, want 2", len(st))
	}
	if st[0].Name != "extract" || st[0].Wall <= 0 || st[0].Note != "3 segments" {
		t.Errorf("stage 0 = %+v", st[0])
	}
	if st[1].Err == nil {
		t.Error("failed stage recorded without error")
	}
}

func TestPipelineHonorsCancellation(t *testing.T) {
	p := New(Config{}).Pipeline()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := p.Run(ctx, "sim", func(context.Context) (string, error) {
		ran = true
		return "", nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stage returned %v", err)
	}
	if ran {
		t.Error("stage body ran after cancellation")
	}
	if st := p.Stages(); len(st) != 1 || st[0].Err == nil {
		t.Errorf("cancelled stage not recorded: %+v", st)
	}
}
