// Command inductd is the extraction-as-a-service daemon: a long-running
// HTTP server that accepts JSON sweep jobs (layout geometry + per-job
// engine config overrides), schedules them through a bounded priority
// queue with per-tenant worker budgets, and streams sweep points back
// as NDJSON as they complete. A connection whose request headers take
// longer than 10 s to arrive is closed.
//
// Usage:
//
//	inductd [-addr :8472] [-workers 0] [-tenantworkers 0] [-queue 64]
//	        [-maxpoints 1024] [-maxsegments 4096]
//
// Endpoints:
//
//	POST /v1/sweep   submit a job; the response is an NDJSON stream of
//	                 sweep points, terminated by a {"done":true,...} line
//	GET  /healthz    liveness probe
//	GET  /statz      queue depth, job counters, per-stage wall time
//
// A job document (see internal/serve) reuses the layoutio layout
// schema:
//
//	{"tenant":"ci","priority":1,
//	 "layout":{"layers":[...],"segments":[...],"planes":[...]},
//	 "port":{"plus":"s0","minus":"g0"},"shorts":[["s1","g1"]],
//	 "fstart_hz":1e8,"fstop_hz":2e10,"points":13,
//	 "config":{"solver":"auto","workers":1,"sweep":"auto",
//	           "sweeptol":1e-6,"planenw":8}}
//
// config.sweep selects exact per-point solves, the adaptive
// rational-interpolation engine, or auto (adaptive at 64+ points);
// adaptive responses mark interpolated rows with "interp":true and
// stream after the fit converges rather than point by point.
// config.planenw sets the conductor-plane mesh density (grid cells per
// axis, 0 = default); out-of-range values and layouts with more than a
// handful of planes are rejected with a structured 400 before any work
// starts.
//
// Flags are validated fail-fast with a one-line error before the
// listener opens.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"inductance101/internal/engine"
	"inductance101/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8472", "listen address (host:port; :0 picks a free port)")
		workers = flag.Int("workers", 0, "total worker slots, the pool tenant budgets carve (0 = all CPUs)")
		tenantw = flag.Int("tenantworkers", 0, "per-tenant concurrent-job budget (0 = workers/4, min 1)")
		queue   = flag.Int("queue", 64, "bounded job-queue depth; jobs beyond it are rejected with 429")
		maxpts  = flag.Int("maxpoints", 1024, "per-job sweep point limit")
		maxsegs = flag.Int("maxsegments", 4096, "per-job layout segment limit")
	)
	flag.Parse()

	// The worker cap rides through engine.Config validation so the
	// daemon and the CLIs reject bad values with the same message.
	if err := (engine.Config{Workers: *workers}).Validate(); err != nil {
		fatal(err)
	}
	srv, err := serve.New(serve.Options{
		Workers:       *workers,
		TenantWorkers: *tenantw,
		QueueDepth:    *queue,
		MaxPoints:     *maxpts,
		MaxSegments:   *maxsegs,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "inductd: listening on http://%s\n", ln.Addr())
	// A client that never finishes its request headers is cut off
	// instead of holding a connection forever.
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	if err := hs.Serve(ln); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "inductd:", err)
	os.Exit(1)
}
