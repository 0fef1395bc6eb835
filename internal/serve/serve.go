// Package serve turns the engine layer into a long-running,
// multi-tenant extraction service: a stdlib net/http daemon that
// accepts JSON sweep jobs (layout geometry + per-job engine.Config
// overrides), runs each through a staged Pipeline with the request's
// context threaded end to end, and streams sweep points back as NDJSON
// as they complete.
//
// The paper's closing argument is that inductance analysis has to be a
// routine design-flow step, not a one-off expert task; this package is
// that step made literal. Verification traffic is thousands of small
// jobs per chip, so the server schedules jobs through a bounded
// priority queue with per-tenant worker budgets carved out of the
// process's worker total: backpressure (429) instead of unbounded
// buffering, and no tenant can starve the rest. Sweep jobs evaluate
// their filament kernels directly (a cache hit costs more than the
// closed-form kernel), so the byte-bounded kernel cache the server
// still owns and reports in /statz sees no job traffic.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"inductance101/internal/engine"
	"inductance101/internal/extract"
	"inductance101/internal/fasthenry"
)

// Options configures a Server. Zero values take the documented
// defaults; negative values are rejected by New.
type Options struct {
	// Workers is the total worker-slot pool — the run-concurrency
	// carve-out every tenant budget comes from. 0 = GOMAXPROCS.
	Workers int
	// TenantWorkers caps one tenant's concurrently running jobs.
	// 0 = max(1, Workers/4).
	TenantWorkers int
	// QueueDepth bounds the waiting queue; admission beyond it fails
	// with 429. 0 = 64.
	QueueDepth int
	// CacheBytes caps the shared kernel cache's resident footprint
	// (CLOCK eviction over the cap). 0 = unbounded.
	CacheBytes int64
	// MaxPoints caps sweep points per job. 0 = 1024.
	MaxPoints int
	// MaxSegments caps layout segments per job. 0 = 4096.
	MaxSegments int
	// MaxBodyBytes caps the request body. 0 = 8 MiB.
	MaxBodyBytes int64
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.TenantWorkers == 0 {
		o.TenantWorkers = o.Workers / 4
		if o.TenantWorkers < 1 {
			o.TenantWorkers = 1
		}
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.MaxPoints == 0 {
		o.MaxPoints = 1024
	}
	if o.MaxSegments == 0 {
		o.MaxSegments = 4096
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 8 << 20
	}
	return o
}

func (o Options) validate() error {
	switch {
	case o.Workers < 0:
		return fmt.Errorf("serve: negative workers %d", o.Workers)
	case o.TenantWorkers < 0:
		return fmt.Errorf("serve: negative tenant worker budget %d", o.TenantWorkers)
	case o.QueueDepth < 0:
		return fmt.Errorf("serve: negative queue depth %d", o.QueueDepth)
	case o.CacheBytes < 0:
		return fmt.Errorf("serve: negative kernel-cache byte cap %d", o.CacheBytes)
	case o.MaxPoints < 0 || o.MaxSegments < 0 || o.MaxBodyBytes < 0:
		return fmt.Errorf("serve: negative job limit")
	}
	return nil
}

// Server is the extraction-as-a-service daemon state: the shared
// bounded kernel cache, the slot scheduler, and the counters /statz
// reports. Create one with New and mount Handler on an http.Server.
type Server struct {
	opt   Options
	cache *extract.KernelCache // shared across tenants, byte-bounded
	sched *scheduler
	mux   *http.ServeMux

	accepted    atomic.Uint64
	completed   atomic.Uint64
	cancelled   atomic.Uint64
	failed      atomic.Uint64
	rejected400 atomic.Uint64
	rejected429 atomic.Uint64
	points      atomic.Uint64

	stageMu sync.Mutex
	stages  map[string]*stageAgg
}

type stageAgg struct {
	count  uint64
	wallNs int64
}

// New builds a Server. Invalid options (negative values) are rejected
// with a one-line error.
func New(opt Options) (*Server, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	s := &Server{
		opt:    opt,
		cache:  extract.NewBoundedCache(opt.CacheBytes),
		sched:  newScheduler(opt.Workers, opt.TenantWorkers, opt.QueueDepth),
		stages: make(map[string]*stageAgg),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats snapshots the shared kernel cache.
func (s *Server) CacheStats() extract.CacheStats { return s.cache.Stats() }

func (s *Server) limits() Limits {
	return Limits{MaxPoints: s.opt.MaxPoints, MaxSegments: s.opt.MaxSegments}
}

func (s *Server) recordStage(name string, wall time.Duration) {
	s.stageMu.Lock()
	agg := s.stages[name]
	if agg == nil {
		agg = &stageAgg{}
		s.stages[name] = agg
	}
	agg.count++
	agg.wallNs += wall.Nanoseconds()
	s.stageMu.Unlock()
}

func (s *Server) recordPipeline(pl *engine.Pipeline) {
	for _, st := range pl.Stages() {
		s.recordStage(st.Name, st.Wall)
	}
}

// errorJSON is the structured body of every non-200 response.
type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(errorJSON{Error: msg})
}

// pointJSON is one NDJSON stream line: a completed sweep point. Interp
// marks rows an adaptive sweep filled from the rational interpolant
// rather than a solve.
type pointJSON struct {
	FreqHz float64 `json:"freq_hz"`
	ROhm   float64 `json:"r_ohm"`
	LH     float64 `json:"l_h"`
	Iters  int     `json:"iters,omitempty"`
	Interp bool    `json:"interp,omitempty"`
}

// doneJSON is the stream's final line; its presence tells the client
// the sweep completed rather than being cut off mid-stream.
type doneJSON struct {
	Done      bool   `json:"done"`
	Points    int    `json:"points"`
	Filaments int    `json:"filaments"`
	Solver    string `json:"solver"`
}

// handleSweep runs one job end to end on the caller's goroutine: decode
// and validate, wait for a worker slot (bounded queue, 429 over depth),
// build the solver, then stream sweep points as NDJSON. The request
// context is threaded through every stage, so a client disconnect
// cancels the job at the next point boundary and frees the slot.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a job document to /v1/sweep")
		return
	}
	ctx := r.Context()

	t0 := time.Now()
	jb, err := decodeJob(io.LimitReader(r.Body, s.opt.MaxBodyBytes), s.limits(), s.opt.TenantWorkers)
	s.recordStage("decode", time.Since(t0))
	if err != nil {
		s.rejected400.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	sess, err := engine.NewCheckedWithCache(jb.cfg, s.cache)
	if err != nil {
		s.rejected400.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	pl := sess.Pipeline()

	admitted := false
	err = pl.Run(ctx, "queue", func(ctx context.Context) (string, error) {
		var aerr error
		admitted, aerr = s.sched.acquire(ctx, jb.tenant, jb.prio)
		return "", aerr
	})
	if !admitted {
		s.recordPipeline(pl)
		if errors.Is(err, ErrQueueFull) {
			s.rejected429.Add(1)
			writeError(w, http.StatusTooManyRequests, ErrQueueFull.Error())
		}
		// Otherwise the client vanished before admission: nothing was
		// accepted, nothing to write.
		return
	}
	s.accepted.Add(1)
	if err != nil {
		// Admitted, then the client went away while queued; the slot
		// was never held (or was returned by acquire).
		s.cancelled.Add(1)
		s.recordPipeline(pl)
		return
	}
	defer s.sched.release(jb.tenant)
	defer s.recordPipeline(pl)

	var solver *fasthenry.Solver
	err = pl.Run(ctx, "build", func(context.Context) (string, error) {
		sv, err := fasthenry.NewSolver(jb.layout, jb.segs, jb.port, jb.shorts,
			jb.freqs[len(jb.freqs)-1], sess.SolverOptions())
		if err != nil {
			return "", err
		}
		solver = sv
		return fmt.Sprintf("%d filaments", sv.NumFilaments()), nil
	})
	if err != nil {
		if ctx.Err() != nil {
			s.cancelled.Add(1)
			return
		}
		// Build failures are request defects (unknown port node, no
		// closed loop): the geometry was syntactically fine but not
		// solvable as asked. The job was accepted, so it lands in
		// `failed` — accepted == completed + cancelled + failed.
		s.failedJob(w, http.StatusBadRequest, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	streamed := 0
	err = pl.Run(ctx, "sweep", func(ctx context.Context) (string, error) {
		writePoint := func(p fasthenry.Point) error {
			if err := enc.Encode(pointJSON{
				FreqHz: p.Freq, ROhm: p.R, LH: p.L, Iters: p.Iters, Interp: p.Interp,
			}); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			streamed++
			s.points.Add(1)
			return nil
		}
		if jb.cfg.SweepMode.Adapt(len(jb.freqs)) {
			// Adaptive sweeps solve only the anchor frequencies the
			// rational fit requests, so rows cannot stream point by
			// point; the whole sweep (cancellable between anchor solves
			// via ctx) runs first, then streams.
			pts, err := solver.SweepParallelCtx(ctx, jb.freqs, jb.cfg.Workers)
			if err != nil {
				return "", err
			}
			for _, p := range pts {
				if err := writePoint(p); err != nil {
					return "", err
				}
			}
			return fmt.Sprintf("%d points", streamed), nil
		}
		for _, f := range jb.freqs {
			if err := ctx.Err(); err != nil {
				return fmt.Sprintf("%d/%d points", streamed, len(jb.freqs)), err
			}
			pts, err := solver.Sweep([]float64{f})
			if err != nil {
				return "", err
			}
			if err := writePoint(pts[0]); err != nil {
				return "", err
			}
		}
		return fmt.Sprintf("%d points", streamed), nil
	})
	if err != nil {
		if ctx.Err() != nil {
			s.cancelled.Add(1)
		} else if streamed == 0 {
			s.failedJob(w, http.StatusUnprocessableEntity, err)
		} else {
			// Mid-stream failure: the status line is long gone; the
			// missing done line tells the client the stream is partial.
			s.failed.Add(1)
		}
		return
	}
	if err := enc.Encode(doneJSON{
		Done: true, Points: streamed,
		Filaments: solver.NumFilaments(),
		Solver:    solver.SolveModeInUse().String(),
	}); err != nil {
		s.failed.Add(1)
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	s.completed.Add(1)
}

// failedJob reports a job that died before any point was streamed.
func (s *Server) failedJob(w http.ResponseWriter, code int, err error) {
	s.failed.Add(1)
	writeError(w, code, err.Error())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// statzJSON is the /statz document. Field order is fixed by the struct
// so the golden suite can pin the shape.
type statzJSON struct {
	QueueDepth     int         `json:"queue_depth"`
	Running        int         `json:"running"`
	Workers        int         `json:"workers"`
	TenantBudget   int         `json:"tenant_budget"`
	QueueCap       int         `json:"queue_cap"`
	Accepted       uint64      `json:"accepted"`
	Completed      uint64      `json:"completed"`
	Cancelled      uint64      `json:"cancelled"`
	Failed         uint64      `json:"failed"`
	Rejected400    uint64      `json:"rejected_400"`
	Rejected429    uint64      `json:"rejected_429"`
	PointsStreamed uint64      `json:"points_streamed"`
	Cache          cacheJSON   `json:"cache"`
	Stages         []stageJSON `json:"stages"`
}

type cacheJSON struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	CapBytes  int64  `json:"cap_bytes"`
	Evictions uint64 `json:"evictions"`
}

type stageJSON struct {
	Name   string `json:"name"`
	Count  uint64 `json:"count"`
	WallNs int64  `json:"wall_ns"`
}

// Statz snapshots the server counters (the same document /statz
// serves).
func (s *Server) Statz() statzJSON {
	cs := s.cache.Stats()
	doc := statzJSON{
		QueueDepth:     s.sched.queueDepth(),
		Running:        s.sched.runningTotal(),
		Workers:        s.opt.Workers,
		TenantBudget:   s.opt.TenantWorkers,
		QueueCap:       s.opt.QueueDepth,
		Accepted:       s.accepted.Load(),
		Completed:      s.completed.Load(),
		Cancelled:      s.cancelled.Load(),
		Failed:         s.failed.Load(),
		Rejected400:    s.rejected400.Load(),
		Rejected429:    s.rejected429.Load(),
		PointsStreamed: s.points.Load(),
		Cache: cacheJSON{
			Hits: cs.Hits, Misses: cs.Misses, Entries: cs.Entries,
			Bytes: cs.Bytes, CapBytes: cs.CapBytes, Evictions: cs.Evictions,
		},
	}
	s.stageMu.Lock()
	for name, agg := range s.stages {
		doc.Stages = append(doc.Stages, stageJSON{Name: name, Count: agg.count, WallNs: agg.wallNs})
	}
	s.stageMu.Unlock()
	sort.Slice(doc.Stages, func(i, j int) bool { return doc.Stages[i].Name < doc.Stages[j].Name })
	return doc
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	out, err := json.MarshalIndent(s.Statz(), "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(out, '\n'))
}
