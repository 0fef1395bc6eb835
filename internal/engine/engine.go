// Package engine is the run-scoped configuration layer of the
// extraction/simulation stack. A Config is an immutable description of
// one run's tuning (worker fan-out, solve mode, ACA tolerance, sweep
// mode, plane mesh density); a Session translates the Config into the
// option structs of the lower layers (extract, fasthenry); sim
// transients take Config().Workers directly.
// Two Sessions with conflicting configs can run concurrently in one
// process without touching each other: no layer keeps process-global
// tuning state.
//
// Every zero Config field means the built-in default (GOMAXPROCS
// workers, auto solve mode, auto sweep mode).
package engine

import (
	"fmt"
	"math"

	"inductance101/internal/extract"
	"inductance101/internal/fasthenry"
	"inductance101/internal/mesh"
	"inductance101/internal/sweep"
)

// CachePolicy is unused: every extraction kernel is computed directly,
// so there is no kernel cache to choose. Nothing reads it; it stays
// only until the benchmark harness, its last user, stops naming it.
type CachePolicy int

// CachePrivate is unused, like CachePolicy, and goes with it.
const CachePrivate CachePolicy = 0

// Config is one run's immutable tuning. Zero values select the
// built-in defaults (each field documents its own convention).
type Config struct {
	// Workers caps goroutine fan-out everywhere the run parallelizes:
	// extraction rows, factorization strips, sweep points.
	// 0 = process default (matrix.Workers), 1 = fully serial; negative
	// values are rejected by Validate.
	Workers int
	// SolveMode picks the fasthenry solve path
	// (auto/dense/iterative/nested).
	SolveMode fasthenry.SolveMode
	// ACATol is the relative tolerance of the compressed far field —
	// ACA factors or nested interpolation bases (0 = the
	// extract/fasthenry default, 1e-8).
	ACATol float64
	// Cache is unused (see CachePolicy): nothing reads it, and it goes
	// once the benchmark harness stops setting it.
	Cache CachePolicy
	// SweepMode selects how loop-extraction frequency sweeps are
	// solved: exact per-point solves, the adaptive rational-
	// interpolation engine, or automatic selection by point count (the
	// zero value, sweep.ModeAuto — adaptive at sweep.AutoThreshold
	// requested points and exact below, which keeps every small legacy
	// sweep bit-identical).
	SweepMode sweep.Mode
	// SweepTol is the adaptive engine's relative interpolation
	// tolerance: interpolated points target |Z_fit - Z_exact| <=
	// SweepTol*|Z_exact|. 0 = sweep.DefaultTol (1e-6); negative or NaN
	// values are rejected by Validate.
	SweepTol float64
	// PlaneNW is the mesh grid density of conductor planes: the number
	// of grid cells along each plane axis. 0 = mesh.DefaultPlaneNW;
	// values outside [2, mesh.MaxPlaneNW] are rejected by Validate
	// before any geometry is read.
	PlaneNW int
}

// Validate rejects configs no layer can interpret. Zero values are
// always valid (they mean "built-in default").
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("engine: negative worker cap %d", c.Workers)
	}
	if c.ACATol < 0 {
		return fmt.Errorf("engine: negative ACA tolerance %g", c.ACATol)
	}
	switch c.SolveMode {
	case fasthenry.ModeAuto, fasthenry.ModeDense, fasthenry.ModeIterative, fasthenry.ModeNested:
	default:
		return fmt.Errorf("engine: unknown solve mode %d", int(c.SolveMode))
	}
	switch c.SweepMode {
	case sweep.ModeAuto, sweep.ModeExact, sweep.ModeAdaptive:
	default:
		return fmt.Errorf("engine: unknown sweep mode %d", int(c.SweepMode))
	}
	if c.SweepTol < 0 || math.IsNaN(c.SweepTol) {
		return fmt.Errorf("engine: sweep tolerance must be > 0, got %g", c.SweepTol)
	}
	if err := mesh.ValidatePlaneNW(c.PlaneNW); err != nil {
		return err
	}
	return nil
}

// ParseSweepMode parses the CLI spelling of a sweep mode ("", "auto",
// "exact", "adaptive"), rejecting unknown values with a one-line error.
// It exists so CLIs configure sweeps entirely through engine.Config
// without importing internal/sweep.
func ParseSweepMode(s string) (sweep.Mode, error) {
	return sweep.ParseMode(s)
}

// Session binds a validated Config to one run. Sessions are cheap;
// build one per logical run and thread it (or the option structs it
// mints) through the call chain. All methods are safe for concurrent
// use — the config is immutable.
type Session struct {
	cfg Config
}

// New builds a Session. Invalid configs are rejected by NewChecked;
// New panics on them, which keeps the common literal-config call sites
// un-error-checked (a config is program text, not input).
func New(cfg Config) *Session {
	s, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewChecked is New with the validation error returned instead of
// panicking, for configs assembled from user input.
func NewChecked(cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{cfg: cfg}, nil
}

// Config returns the session's immutable config.
func (s *Session) Config() Config { return s.cfg }

// CacheStats is unused, like CachePolicy: with no kernel cache there
// are no counters, so it always returns the zero CacheStats.
func (s *Session) CacheStats() CacheStats { return CacheStats{} }

// CacheStats is the empty counter set Session.CacheStats returns; it
// goes with Session.CacheStats.
type CacheStats struct{}

// HitRate is always 0: no kernel lookup is ever made.
func (CacheStats) HitRate() float64 { return 0 }

// ExtractOptions mints a full-layout extraction option set: the
// extract defaults (dense mutual matrix, 3 um coupling window) under
// this session's workers.
func (s *Session) ExtractOptions() extract.Options {
	opt := extract.DefaultOptions()
	opt.Workers = s.cfg.Workers
	return opt
}

// SolverOptions mints the base fasthenry option set (solve mode, ACA
// tolerance, workers, sweep, plane density); callers fill the
// discretization fields (NW/NT/MaxPerSide) per extraction.
func (s *Session) SolverOptions() fasthenry.Options {
	return fasthenry.Options{
		Mode:      s.cfg.SolveMode,
		ACATol:    s.cfg.ACATol,
		Workers:   s.cfg.Workers,
		SweepMode: s.cfg.SweepMode,
		SweepTol:  s.cfg.SweepTol,
		PlaneNW:   s.cfg.PlaneNW,
	}
}
