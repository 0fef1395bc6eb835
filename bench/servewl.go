package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	"inductance101/internal/engine"
	"inductance101/internal/fasthenry"
	"inductance101/internal/layoutio"
	"inductance101/internal/serve"
)

// serveWL drives an in-process inductd over loopback HTTP the way
// independent users do: an open loop that sends each job when it is due,
// whatever the server is doing, over a fixed pair of client connections.
// Latency is timed from each job's due time, so a stall also charges
// the jobs that queued behind it. The server has one worker, which
// leaves the second core to the load generator.
type serveWL struct {
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client

	jobs   []serveJob
	window statzDoc // server counters accumulated over the window
}

const (
	serveRate    = 40   // jobs per second
	serveConns   = 2    // client connections
	servePitches = 64   // distinct small-job geometries
	serveTenants = 8    // tenants jobs are spread over
	serveLarge   = 0.02 // share of large batch jobs
	serveSampled = 4    // small jobs the gate re-solves directly

	smallWires, largeWires  = 2, 48
	servePoints             = 8
	serveFStart, serveFStop = 1e8, 2e10
)

// serveJob is one planned request and what the client saw of it. Times
// are offsets from the start of the window.
type serveJob struct {
	due    time.Duration
	wires  int
	pitch  float64
	sample bool
	body   []byte

	sent, gotConn, finished time.Duration
	status                  int
	done                    bool
	err                     error
	points                  []streamLine
}

// streamLine is any line of a job's NDJSON response.
type streamLine struct {
	FreqHz float64 `json:"freq_hz"`
	ROhm   float64 `json:"r_ohm"`
	LH     float64 `json:"l_h"`
	Done   bool    `json:"done"`
}

func servePitch(k int) float64 { return 10e-6 + float64(k)*0.5e-6 }

// serveBus is a job's structure: wires 8 um wide and 2 mm long at one
// pitch.
func serveBus(wires int, pitch float64) loopBus {
	ys := make([]float64, wires)
	for w := range ys {
		ys[w] = float64(w) * pitch
	}
	return newLoopBus(nil, ys, 2e-3, 8e-6)
}

// jobBody renders one job document in the server's wire schema.
func jobBody(tenant string, priority, wires int, pitch float64) ([]byte, error) {
	b := serveBus(wires, pitch)
	type port struct {
		Plus  string `json:"plus"`
		Minus string `json:"minus"`
	}
	return json.Marshal(struct {
		Tenant   string         `json:"tenant"`
		Priority int            `json:"priority"`
		Layout   *layoutio.File `json:"layout"`
		Port     port           `json:"port"`
		Shorts   [][2]string    `json:"shorts"`
		FStartHz float64        `json:"fstart_hz"`
		FStopHz  float64        `json:"fstop_hz"`
		Points   int            `json:"points"`
	}{tenant, priority, layoutio.FromLayout(b.lay), port{b.port.Plus, b.port.Minus}, b.shorts,
		serveFStart, serveFStop, servePoints})
}

// setup starts a fresh server and warms its shared kernel cache with one
// small job per pitch and one large job, as a long-running daemon's
// cache would be.
func (w *serveWL) setup(e *env, iter int) error {
	w.stop()
	id := e.tr.begin(-1, iter, "serve.start")
	err := w.start()
	e.tr.end(id, nil)
	if err != nil {
		return err
	}
	id = e.tr.begin(-1, iter, "serve.warmup")
	defer e.tr.end(id, nil)
	for k := 0; k <= servePitches; k++ {
		wires, prio := smallWires, 1
		if k == servePitches {
			wires, prio = largeWires, serve.PriorityBatch
		}
		body, err := jobBody("warmup", prio, wires, servePitch(k%servePitches))
		if err != nil {
			return err
		}
		j := serveJob{body: body}
		w.send(&j, time.Now())
		if j.err != nil || !j.done {
			return fmt.Errorf("warm-up job %d: status %d, done %v, err %v", k, j.status, j.done, j.err)
		}
	}
	return nil
}

func (w *serveWL) start() error {
	srv, err := serve.New(serve.Options{Workers: 1, QueueDepth: 64, CacheBytes: 4 << 20})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	return nil
}

// stop shuts the server down and waits for it; safe to call when none
// runs.
func (w *serveWL) stop() {
	if w.hs == nil {
		return
	}
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // a timeout still leaves Serve returned, which the wait below needs
	<-w.served
	w.hs = nil
}

func (w *serveWL) close() { w.stop() }

// plan lays out the window's jobs: due every 1/serveRate seconds, an
// exact share of them large at seeded positions, seeded pitches and
// tenants, and a few seeded small jobs marked for the gate.
func (w *serveWL) plan(rng *rand.Rand, n int) error {
	nLarge := int(float64(n)*serveLarge + 0.5)
	large := map[int]bool{}
	for _, i := range rng.Perm(n)[:nLarge] {
		large[i] = true
	}
	w.jobs = make([]serveJob, n)
	var small []int
	for i := range w.jobs {
		j := &w.jobs[i]
		j.due = time.Duration(float64(i) / serveRate * float64(time.Second))
		j.wires, j.pitch = smallWires, servePitch(rng.Intn(servePitches))
		prio := 1
		if large[i] {
			j.wires, prio = largeWires, serve.PriorityBatch
		} else {
			small = append(small, i)
		}
		body, err := jobBody(fmt.Sprintf("tenant%d", rng.Intn(serveTenants)), prio, j.wires, j.pitch)
		if err != nil {
			return err
		}
		j.body = body
	}
	rng.Shuffle(len(small), func(a, b int) { small[a], small[b] = small[b], small[a] })
	for _, i := range small[:min(serveSampled, len(small))] {
		w.jobs[i].sample = true
	}
	for i := range w.jobs {
		if w.jobs[i].wires == largeWires {
			w.jobs[i].sample = true
			break
		}
	}
	return nil
}

// send posts one job and reads its stream to the end, recording the
// times it got a connection and finished relative to t0.
func (w *serveWL) send(j *serveJob, t0 time.Time) {
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { j.gotConn = time.Since(t0) },
	})
	defer func() { j.finished = time.Since(t0) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/sweep", bytes.NewReader(j.body))
	if err != nil {
		j.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		j.err = err
		return
	}
	defer resp.Body.Close()
	j.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			j.err = fmt.Errorf("bad stream line %q: %w", sc.Text(), err)
			return
		}
		if l.Done {
			j.done = true
		} else if j.sample {
			j.points = append(j.points, l)
		}
	}
	j.err = sc.Err()
}

func (j *serveJob) ok() bool { return j.err == nil && j.status == http.StatusOK && j.done }

func (w *serveWL) measure(e *env, deadline time.Time) ([]float64, int, int) {
	n := max(1, int(serveRate*time.Until(deadline).Seconds()))
	if err := w.plan(e.rand(), n); err != nil {
		fmt.Fprintln(e.log, "bench: serve plan:", err)
		return nil, n, n
	}
	before, errBefore := w.statz()

	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range w.jobs {
		j := &w.jobs[i]
		time.Sleep(time.Until(t0.Add(j.due)))
		j.sent = time.Since(t0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.send(j, t0)
		}()
	}
	wg.Wait()

	var samples, small, large, connWait []float64
	failed := 0
	var lagMax time.Duration
	for i := range w.jobs {
		j := &w.jobs[i]
		lagMax = max(lagMax, j.sent-j.due)
		if e.tr.on {
			at := e.tr.since(t0)
			id := e.tr.add(-1, i, "serve.job", at+j.due.Seconds(), at+j.finished.Seconds(), nil)
			e.tr.add(id, i, "serve.conn_wait", at+j.sent.Seconds(), at+j.gotConn.Seconds(), nil)
		}
		if !j.ok() {
			failed++
			if failed == 1 {
				fmt.Fprintf(e.log, "bench: serve job %d: status %d, done %v, err %v\n", i, j.status, j.done, j.err)
			}
			continue
		}
		lat := (j.finished - j.due).Seconds()
		samples = append(samples, lat)
		connWait = append(connWait, (j.gotConn-j.sent).Seconds()*1e3)
		ms := lat * 1e3
		if j.wires == largeWires {
			large = append(large, ms)
		} else {
			small = append(small, ms)
		}
	}

	x := e.extras
	x["serve.small_p50_ms"] = median(small)
	x["serve.large_p50_ms"] = median(large)
	x["serve.conn_wait_ms"] = median(connWait)
	x["serve.gen_lag_max_ms"] = lagMax.Seconds() * 1e3
	if pct, v, ok := tailPercentile(samples); ok {
		x["serve.tail_pct"], x["serve.tail_ms"] = pct, v*1e3
	}
	if lagMax > time.Second/serveRate {
		fmt.Fprintf(e.log, "bench: serve: generator fell behind by up to %v; latencies are suspect\n", lagMax)
	}
	after, errAfter := w.statz()
	if err := errors.Join(errBefore, errAfter); err != nil {
		fmt.Fprintln(e.log, "bench: serve statz:", err)
		return samples, n, failed
	}
	d := after.minus(before)
	for _, st := range d.Stages {
		if st.Count > 0 {
			x["serve."+st.Name+"_ms"] = float64(st.WallNs) / float64(st.Count) / 1e6
		}
	}
	if lookups := d.Cache.Hits + d.Cache.Misses; lookups > 0 {
		x["serve.cache_hit_rate"] = float64(d.Cache.Hits) / float64(lookups)
	}
	x["serve.cache_evictions"] = float64(d.Cache.Evictions)
	x["serve.rejected_429"] = float64(d.Rejected429)
	w.window = d
	return samples, n, failed
}

// statzDoc is the part of the server's /statz document the benchmark
// reads.
type statzDoc struct {
	Accepted    uint64 `json:"accepted"`
	Completed   uint64 `json:"completed"`
	Rejected429 uint64 `json:"rejected_429"`
	Cache       struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Stages []statzStage `json:"stages"`
}

type statzStage struct {
	Name   string `json:"name"`
	Count  uint64 `json:"count"`
	WallNs int64  `json:"wall_ns"`
}

func (w *serveWL) statz() (statzDoc, error) {
	var doc statzDoc
	resp, err := w.client.Get(w.base + "/statz")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("GET /statz: status %d", resp.StatusCode)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// minus returns the counters accumulated between b and s.
func (s statzDoc) minus(b statzDoc) statzDoc {
	d := s
	d.Accepted -= b.Accepted
	d.Completed -= b.Completed
	d.Rejected429 -= b.Rejected429
	d.Cache.Hits -= b.Cache.Hits
	d.Cache.Misses -= b.Cache.Misses
	d.Cache.Evictions -= b.Cache.Evictions
	d.Stages = nil
	for _, st := range s.Stages {
		for _, old := range b.Stages {
			if old.Name == st.Name {
				st.Count -= old.Count
				st.WallNs -= old.WallNs
			}
		}
		d.Stages = append(d.Stages, st)
	}
	return d
}

// gate requires a done line on every accepted stream, the server's
// completion count to match the client's, and the sampled jobs' points
// to match a direct dense solve of the same structure: bit-for-bit in
// effect for small jobs (the server solves them densely too), within
// the documented 1e-6 iterative-vs-dense bound for the large one.
func (w *serveWL) gate(*env) error {
	done := 0
	for i := range w.jobs {
		j := &w.jobs[i]
		if j.status == http.StatusOK && !j.done {
			return fmt.Errorf("serve: accepted job %d ended without a done line (err %v)", i, j.err)
		}
		if j.done {
			done++
		}
	}
	if uint64(done) != w.window.Completed {
		return fmt.Errorf("serve: server completed %d jobs in the window, client read %d done lines", w.window.Completed, done)
	}
	for i := range w.jobs {
		if j := &w.jobs[i]; j.sample {
			if err := checkServeJob(j); err != nil {
				return fmt.Errorf("serve: job %d: %w", i, err)
			}
		}
	}
	return nil
}

func checkServeJob(j *serveJob) error {
	b := serveBus(j.wires, j.pitch)
	sess := engine.New(engine.Config{Workers: 1, Cache: engine.CachePrivate, SolveMode: fasthenry.ModeDense})
	freqs := fasthenry.LogSpace(serveFStart, serveFStop, servePoints)
	s, err := fasthenry.NewSolver(b.lay, b.segs, b.port, b.shorts, freqs[len(freqs)-1], sess.SolverOptions())
	if err != nil {
		return err
	}
	ref, err := s.Sweep(freqs)
	if err != nil {
		return err
	}
	if len(j.points) != len(ref) {
		return fmt.Errorf("streamed %d points, want %d", len(j.points), len(ref))
	}
	tol := 1e-9
	if j.wires == largeWires {
		tol = 1e-6
	}
	var got, want []complex128
	var tols []float64
	for i, p := range j.points {
		got = append(got, complex(p.ROhm, 2*math.Pi*p.FreqHz*p.LH))
		want = append(want, ref[i].Z)
		tols = append(tols, tol)
	}
	return checkAgree(fmt.Sprintf("%d-wire job vs direct dense solve", j.wires), freqs, got, want, tols)
}

func (w *serveWL) traceExtras(*env, []span) error { return nil }
