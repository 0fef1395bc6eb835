// Package engine is the run-scoped configuration layer of the
// extraction/simulation stack. A Config is an immutable description of
// one run's tuning (worker fan-out, solve mode, ACA tolerance,
// kernel-cache policy, sweep mode, plane mesh density);
// a Session owns the run's kernel cache and translates the Config into
// the option structs of the lower layers (extract, fasthenry); sim
// transients take Config().Workers directly.
// Two Sessions with conflicting configs can run concurrently in one
// process without touching each other: each owns its kernel cache, and
// no layer keeps process-global tuning state.
//
// Every zero Config field means the built-in default (GOMAXPROCS
// workers, auto solve mode, a private kernel cache, auto sweep mode).
package engine

import (
	"fmt"
	"math"

	"inductance101/internal/extract"
	"inductance101/internal/fasthenry"
	"inductance101/internal/mesh"
	"inductance101/internal/sweep"
)

// CachePolicy selects the kernel cache a session's extraction kernels
// memoize into.
type CachePolicy int

const (
	// CachePrivate gives the session its own cache: full memoization
	// within the session, no sharing or interference across sessions.
	CachePrivate CachePolicy = iota
	// CacheOff computes every kernel directly.
	CacheOff
)

// Config is one run's immutable tuning. Zero values select the
// built-in defaults (each field documents its own convention).
type Config struct {
	// Workers caps goroutine fan-out everywhere the run parallelizes:
	// extraction rows, factorization strips, sweep points.
	// 0 = process default (matrix.Workers), 1 = fully serial.
	Workers int
	// SolveMode picks the fasthenry solve path
	// (auto/dense/iterative/nested).
	SolveMode fasthenry.SolveMode
	// ACATol is the relative tolerance of the compressed far field —
	// ACA factors or nested interpolation bases (0 = the
	// extract/fasthenry default, 1e-8).
	ACATol float64
	// Cache is the kernel-cache policy.
	Cache CachePolicy
	// CacheBytes bounds the run's kernel-cache resident footprint in
	// bytes; over the cap, entries are evicted with a sharded CLOCK
	// policy (bit-identical results either way — eviction only trades
	// recomputation for memory). 0 = unbounded; negative values are
	// rejected. The cap applies to the session's own cache; CacheOff
	// ignores it.
	CacheBytes int64
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
	if c.ACATol < 0 {
		return fmt.Errorf("engine: negative ACA tolerance %g", c.ACATol)
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("engine: negative kernel-cache byte cap %d", c.CacheBytes)
	}
	switch c.Cache {
	case CachePrivate, CacheOff:
	default:
		return fmt.Errorf("engine: unknown cache policy %d", int(c.Cache))
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

// Session binds a Config to run-owned state: the kernel cache the
// config's policy names. Sessions are cheap; build one per logical run
// and thread it (or the option structs it mints) through the call
// chain. All methods are safe for concurrent use — the config is
// immutable and the cache is internally synchronized.
type Session struct {
	cfg   Config
	cache *extract.KernelCache
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
	s := &Session{cfg: cfg}
	if cfg.Cache == CachePrivate {
		s.cache = extract.NewBoundedCache(cfg.CacheBytes)
	}
	return s, nil
}

// NewCheckedWithCache is NewChecked with the session's kernel cache
// supplied by the caller instead of minted from the config's cache
// policy. It exists for daemons that multiplex many sessions over one
// explicitly bounded cache (see internal/serve): each request gets its
// own config, but they all memoize into — and are capped by — the one
// cache the process owns. cfg.Cache and cfg.CacheBytes are validated
// but otherwise ignored.
func NewCheckedWithCache(cfg Config, cache *extract.KernelCache) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, cache: cache}, nil
}

// Config returns the session's immutable config.
func (s *Session) Config() Config { return s.cfg }

// Cache returns the session's kernel cache (nil under CacheOff); pass
// it to extract entry points.
func (s *Session) Cache() *extract.KernelCache { return s.cache }

// CacheStats reports the session cache's hit/miss counters.
func (s *Session) CacheStats() extract.CacheStats { return s.cache.Stats() }

// ResetCache clears the session cache's entries and counters.
func (s *Session) ResetCache() { s.cache.Reset() }

// ExtractOptions mints a full-layout extraction option set: the
// extract defaults (dense mutual matrix, 3 um coupling window) under
// this session's workers and cache.
func (s *Session) ExtractOptions() extract.Options {
	opt := extract.DefaultOptions()
	opt.Workers = s.cfg.Workers
	opt.Cache = s.cache
	return opt
}

// SolverOptions mints the base fasthenry option set (solve mode, ACA
// tolerance, cache, workers, sweep, plane density); callers fill the
// discretization fields (NW/NT/MaxPerSide/Rho) per extraction.
func (s *Session) SolverOptions() fasthenry.Options {
	return fasthenry.Options{
		Mode:      s.cfg.SolveMode,
		ACATol:    s.cfg.ACATol,
		Cache:     s.cache,
		Workers:   s.cfg.Workers,
		SweepMode: s.cfg.SweepMode,
		SweepTol:  s.cfg.SweepTol,
		PlaneNW:   s.cfg.PlaneNW,
	}
}
