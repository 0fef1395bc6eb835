package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"inductance101/internal/extract"
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
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{ACATol: -1},
		{Cache: CachePolicy(99)},
		{SolveMode: fasthenry.SolveMode(42)},
		{CacheBytes: -1},
		{Cache: CachePrivate, CacheBytes: -4096},
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
		{Cache: CachePrivate, CacheBytes: 1 << 20}, // zero CacheBytes = unbounded, positive = cap
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

// TestSessionCacheBytes pins the CacheBytes plumbing: a private-cache
// session carries the cap on its own cache, and NewCheckedWithCache
// binds the caller's shared cache to every session built over it.
func TestSessionCacheBytes(t *testing.T) {
	s := New(Config{Cache: CachePrivate, CacheBytes: 1 << 20})
	if st := s.CacheStats(); st.CapBytes != 1<<20 {
		t.Errorf("private session cache cap = %d, want %d", st.CapBytes, 1<<20)
	}
	if st := New(Config{Cache: CachePrivate}).CacheStats(); st.CapBytes != 0 {
		t.Errorf("uncapped private session reports cap %d", st.CapBytes)
	}

	shared := extract.NewBoundedCache(2 << 20)
	a, err := NewCheckedWithCache(Config{Workers: 1}, shared)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCheckedWithCache(Config{Workers: 2, Cache: CacheOff}, shared)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cache() != shared || b.Cache() != shared {
		t.Errorf("NewCheckedWithCache sessions do not share the supplied cache")
	}
	if _, err := NewCheckedWithCache(Config{CacheBytes: -1}, shared); err == nil {
		t.Errorf("NewCheckedWithCache accepted an invalid config")
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

func TestCachePolicies(t *testing.T) {
	priv := New(Config{Cache: CachePrivate})
	if st := priv.CacheStats(); !st.Enabled {
		t.Error("private cache reports disabled")
	}
	off := New(Config{Cache: CacheOff})
	if st := off.CacheStats(); st.Enabled {
		t.Error("CacheOff session reports an enabled cache")
	}
	// A private cache's counters are the session's own.
	priv.Cache().SelfInductanceBar(100e-6, 1e-6, 1e-6)
	priv.Cache().SelfInductanceBar(100e-6, 1e-6, 1e-6)
	st := priv.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("private cache counters = %+v, want 1 hit / 1 miss", st)
	}
	other := New(Config{Cache: CachePrivate})
	if st := other.CacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("second private session inherited counters: %+v", st)
	}
	priv.ResetCache()
	if st := priv.CacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("ResetCache left counters: %+v", st)
	}
}

// TestSessionsOwnTheirCaches pins the isolation contract: building a
// second session with a small byte cap must not trim the cache of a
// session built earlier with the default policy and a large cap.
func TestSessionsOwnTheirCaches(t *testing.T) {
	const n = 2000
	a := New(Config{CacheBytes: 1 << 30})
	for i := 0; i < n; i++ {
		a.Cache().SelfInductanceBar(float64(i+1)*1e-6, 1e-6, 1e-6)
	}
	if st := a.CacheStats(); st.Entries != n {
		t.Fatalf("session A holds %d entries after %d distinct kernels", st.Entries, n)
	}
	New(Config{CacheBytes: 16 << 10})
	st := a.CacheStats()
	if st.Entries != n || st.Evictions != 0 || st.CapBytes != 1<<30 {
		t.Errorf("building session B changed session A's cache: %d entries, %d evictions, cap %d",
			st.Entries, st.Evictions, st.CapBytes)
	}
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
	if p.Wall() < st[0].Wall {
		t.Error("Wall() lost stage time")
	}
	rep := p.Report()
	if !strings.Contains(rep, "extract") || !strings.Contains(rep, "3 segments") || !strings.Contains(rep, "boom") {
		t.Errorf("Report missing content:\n%s", rep)
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
