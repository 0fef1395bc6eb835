package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"inductance101/internal/engine"
	"inductance101/internal/fasthenry"
	"inductance101/internal/layoutio"
)

// testLayout is the Fig. 3(a) signal-over-returns structure as the wire
// schema: one signal between two ground returns, shorted at the far
// end. pitch varies the geometry so different tenants can send
// different structures.
func testLayout(pitch float64) *layoutio.File {
	return &layoutio.File{
		Layers: []layoutio.LayerJSON{
			{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
		},
		Segments: []layoutio.SegmentJSON{
			{Layer: 0, Dir: "X", X0: 0, Y0: 0, Length: 2e-3, Width: 8e-6, Net: "sig", NodeA: "s0", NodeB: "s1"},
			{Layer: 0, Dir: "X", X0: 0, Y0: -pitch, Length: 2e-3, Width: 8e-6, Net: "GND", NodeA: "g0", NodeB: "g1"},
			{Layer: 0, Dir: "X", X0: 0, Y0: pitch, Length: 2e-3, Width: 8e-6, Net: "GND", NodeA: "h0", NodeB: "h1"},
		},
	}
}

func testShorts() [][2]string {
	return [][2]string{{"s1", "g1"}, {"g1", "h1"}, {"g0", "h0"}}
}

// planeLayout is a microstrip-over-plane structure in the wire schema:
// the signal on the top layer, a conductor plane below it whose edge
// rails carry the default port's g0/g1 names.
func planeLayout(planeHalfW float64) *layoutio.File {
	return &layoutio.File{
		Layers: []layoutio.LayerJSON{
			{Name: "M5", Z: 4e-6, Thickness: 0.9e-6, SheetRho: 0.025, HBelow: 1.0e-6},
			{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
		},
		Segments: []layoutio.SegmentJSON{
			{Layer: 1, Dir: "X", X0: 0, Y0: 0, Length: 100e-6, Width: 2e-6, Net: "sig", NodeA: "s0", NodeB: "s1"},
		},
		Planes: []layoutio.PlaneJSON{
			{Layer: 0, X0: 0, Y0: -planeHalfW, X1: 100e-6, Y1: planeHalfW,
				Net: "GND", NodeLeft: "g0", NodeRight: "g1"},
		},
	}
}

// withPlane swaps the default job geometry for the plane structure,
// rewriting the shorts to its node names (the port stays s0/g0).
func withPlane(j *jobJSON) {
	j.Layout = planeLayout(8e-6)
	j.Shorts = [][2]string{{"s1", "g1"}}
}

// testJob builds a job document; overrides mutate the default before
// marshalling.
func testJob(t *testing.T, overrides ...func(*jobJSON)) []byte {
	t.Helper()
	prio := 1
	doc := jobJSON{
		Tenant:   "t0",
		Priority: &prio,
		Layout:   testLayout(20e-6),
		Port:     portJSON{Plus: "s0", Minus: "g0"},
		Shorts:   testShorts(),
		FStartHz: 1e8,
		FStopHz:  2e10,
		Points:   3,
		Config:   jobConfigJSON{Solver: "dense", Workers: 1},
	}
	for _, f := range overrides {
		f(&doc)
	}
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// streamedJob is one parsed NDJSON response.
type streamedJob struct {
	points []pointJSON
	done   *doneJSON
}

// postJob submits a job and parses the NDJSON stream.
func postJob(t *testing.T, url string, body []byte) (int, *streamedJob) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	out := &streamedJob{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			var d doneJSON
			if err := json.Unmarshal(line, &d); err != nil {
				t.Fatalf("bad done line %q: %v", line, err)
			}
			out.done = &d
			continue
		}
		var p pointJSON
		if err := json.Unmarshal(line, &p); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		out.points = append(out.points, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return resp.StatusCode, out
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestSweepEndToEnd posts one job and checks the streamed points are
// bit-identical to a direct fasthenry solve under the same config.
func TestSweepEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	code, got := postJob(t, ts.URL, testJob(t))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.points) != 3 || got.done == nil {
		t.Fatalf("stream: %d points, done=%v", len(got.points), got.done)
	}
	if got.done.Points != 3 || got.done.Solver != "dense" || got.done.Filaments == 0 {
		t.Errorf("done line %+v", got.done)
	}

	// Direct oracle under the identical config.
	lay, err := testLayout(20e-6).ToLayout()
	if err != nil {
		t.Fatal(err)
	}
	sess := engine.New(engine.Config{Workers: 1, SolveMode: fasthenry.ModeDense})
	sv, err := fasthenry.NewSolver(lay, []int{0, 1, 2}, fasthenry.Port{Plus: "s0", Minus: "g0"},
		testShorts(), 2e10, sess.SolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sv.Sweep(fasthenry.LogSpace(1e8, 2e10, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got.points {
		if math.Float64bits(p.ROhm) != math.Float64bits(want[i].R) ||
			math.Float64bits(p.LH) != math.Float64bits(want[i].L) {
			t.Errorf("point %d: got (%g, %g) want (%g, %g)", i, p.ROhm, p.LH, want[i].R, want[i].L)
		}
	}

	st := srv.Statz()
	if st.Accepted != 1 || st.Completed != 1 || st.PointsStreamed != 3 {
		t.Errorf("statz after one job: %+v", st)
	}
	if st.Accepted != st.Completed+st.Cancelled+st.Failed {
		t.Errorf("accounting leak: %+v", st)
	}
}

// TestPlaneSweepEndToEnd submits a microstrip-over-plane job: the
// plane must lower through the shared mesh (visibly more filaments
// than the lone signal segment could produce), the per-job planenw
// override must be honoured, and the streamed points must be physical.
func TestPlaneSweepEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	code, got := postJob(t, ts.URL, testJob(t, withPlane, func(j *jobJSON) {
		j.Config.PlaneNW = 6
	}))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.points) != 3 || got.done == nil {
		t.Fatalf("stream: %d points, done=%v", len(got.points), got.done)
	}
	// A 6x6-cell plane grid alone is ~72 filaments; the lone signal
	// segment at most a handful.
	if got.done.Filaments < 50 {
		t.Errorf("done reports %d filaments; the plane was not meshed", got.done.Filaments)
	}
	for _, p := range got.points {
		if !(p.ROhm > 0) || !(p.LH > 0) {
			t.Errorf("non-physical point %+v", p)
		}
	}
}

// TestAdaptiveSweepStream runs the same job in exact and adaptive sweep
// modes: the adaptive stream must return every requested row, mark a
// majority of them interp, and agree with the exact rows within the
// sweep tolerance.
func TestAdaptiveSweepStream(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, MaxPoints: 256})
	const n = 96
	body := func(mode string) []byte {
		return testJob(t, func(j *jobJSON) {
			j.Points = n
			j.Config.Sweep = mode
			j.Config.SweepTol = 1e-6
		})
	}
	code, exact := postJob(t, ts.URL, body("exact"))
	if code != http.StatusOK || len(exact.points) != n || exact.done == nil {
		t.Fatalf("exact job: status %d, stream %+v", code, exact)
	}
	for _, p := range exact.points {
		if p.Interp {
			t.Fatal("exact sweep streamed an interpolated row")
		}
	}
	code, adaptive := postJob(t, ts.URL, body("adaptive"))
	if code != http.StatusOK || len(adaptive.points) != n || adaptive.done == nil {
		t.Fatalf("adaptive job: status %d, stream %+v", code, adaptive)
	}
	interp := 0
	for i, p := range adaptive.points {
		if p.Interp {
			interp++
		}
		if p.FreqHz != exact.points[i].FreqHz {
			t.Fatalf("row %d: frequency %g vs exact %g", i, p.FreqHz, exact.points[i].FreqHz)
		}
		if e := math.Abs(p.LH-exact.points[i].LH) / math.Abs(exact.points[i].LH); e > 1e-4 {
			t.Errorf("row %d: L deviates %.3g from exact", i, e)
		}
	}
	if interp < n/2 {
		t.Errorf("adaptive stream marked only %d of %d rows interp", interp, n)
	}
}

// TestRejectsStructured400 pins the error contract: malformed or
// out-of-limit jobs get a JSON {"error": ...} body and a 400, and the
// message names the offending value.
func TestRejectsStructured400(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxPoints: 16, MaxSegments: 8})
	cases := []struct {
		name string
		body []byte
		want string // substring of the error message
	}{
		{"malformed", []byte(`{`), "invalid job JSON"},
		{"unknown-field", []byte(`{"bogus":1}`), "bogus"},
		// The GMRES preconditioner is no longer a job setting; a config
		// that still names one is refused, not silently ignored.
		{"removed-precond", bytes.Replace(testJob(t), []byte(`"config":{`), []byte(`"config":{"precond":"sai",`), 1),
			`unknown field "precond"`},
		// There is no kernel cache to choose: a config that still
		// names one is refused, not silently ignored.
		{"removed-kernelcache", bytes.Replace(testJob(t), []byte(`"config":{`), []byte(`"config":{"kernelcache":"off",`), 1),
			`unknown field "kernelcache"`},
		{"no-layout", testJob(t, func(j *jobJSON) { j.Layout = nil }), "missing layout"},
		{"bad-priority", testJob(t, func(j *jobJSON) { p := 9; j.Priority = &p }), "priority 9"},
		{"zero-points", testJob(t, func(j *jobJSON) { j.Points = 0 }), "points 0"},
		{"too-many-points", testJob(t, func(j *jobJSON) { j.Points = 99 }), "points 99"},
		{"bad-freq-order", testJob(t, func(j *jobJSON) { j.FStartHz = 1e10; j.FStopHz = 1e8 }), "below fstart_hz"},
		{"absurd-freq", testJob(t, func(j *jobJSON) { j.FStopHz = 1e30 }), "above"},
		{"bad-solver", testJob(t, func(j *jobJSON) { j.Config.Solver = "quantum" }), "quantum"},
		{"negative-width", testJob(t, func(j *jobJSON) { j.Layout.Segments[0].Width = -1e-6 }), "width"},
		{"absurd-length", testJob(t, func(j *jobJSON) { j.Layout.Segments[0].Length = 5e3 }), "length"},
		{"no-port", testJob(t, func(j *jobJSON) { j.Port = portJSON{} }), "port"},
		{"unknown-port-node", testJob(t, func(j *jobJSON) { j.Port.Plus = "nope" }), "nope"},
		{"bad-sweep-mode", testJob(t, func(j *jobJSON) { j.Config.Sweep = "spline" }), "spline"},
		{"bad-sweeptol", testJob(t, func(j *jobJSON) { j.Config.SweepTol = -1e-6 }), "sweeptol"},
		{"bad-planenw", testJob(t, withPlane, func(j *jobJSON) {
			j.Config.PlaneNW = 1
		}), "plane density 1"},
		{"huge-planenw", testJob(t, withPlane, func(j *jobJSON) {
			j.Config.PlaneNW = 1 << 16
		}), "plane density"},
		// A plane density with no plane to mesh would be ignored.
		{"planenw-without-plane", testJob(t, func(j *jobJSON) { j.Config.PlaneNW = 16 }), "planenw 16"},
		{"too-many-planes", testJob(t, withPlane, func(j *jobJSON) {
			for len(j.Layout.Planes) <= maxPlanesPerJob {
				p := j.Layout.Planes[0]
				p.NodeLeft = fmt.Sprintf("x%d", len(j.Layout.Planes))
				p.NodeRight = fmt.Sprintf("y%d", len(j.Layout.Planes))
				j.Layout.Planes = append(j.Layout.Planes, p)
			}
		}), "planes"},
		{"plane-absurd-extent", testJob(t, withPlane, func(j *jobJSON) {
			j.Layout.Planes[0].X1 = 5.0
		}), "plane 0"},
		{"plane-empty-hole", testJob(t, withPlane, func(j *jobJSON) {
			j.Layout.Planes[0].Holes = []layoutio.HoleJSON{
				{X0: 50e-6, Y0: 0, X1: 40e-6, Y1: 1e-6}}
		}), "hole"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e errorJSON
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("400 body is not the structured error shape: %v", err)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}
}

// TestMethodNotAllowed pins the 405 for non-POST submissions.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweep: status %d, want 405", resp.StatusCode)
	}
}

// TestHealthz pins the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Status != "ok" {
		t.Errorf("healthz: %v %+v", err, doc)
	}
}

// TestQueueFull429 fills the single worker slot and the one queue seat,
// then asserts the next job is rejected with 429 — backpressure, not
// buffering — and that the queued job still completes.
func TestQueueFull429(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, TenantWorkers: 1, QueueDepth: 1})

	// Occupy the only slot directly through the scheduler.
	if ok, err := srv.sched.acquire(context.Background(), "hog", PriorityHigh); !ok || err != nil {
		t.Fatalf("acquire: %v %v", ok, err)
	}

	// First job takes the single queue seat.
	type result struct {
		code int
		got  *streamedJob
	}
	queued := make(chan result, 1)
	go func() {
		code, got := postJob(t, ts.URL, testJob(t, func(j *jobJSON) { j.Tenant = "a" }))
		queued <- result{code, got}
	}()
	waitFor(t, time.Second, func() bool { return srv.sched.queueDepth() == 1 })

	// Queue full: the next submission must bounce with 429.
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		bytes.NewReader(testJob(t, func(j *jobJSON) { j.Tenant = "b" })))
	if err != nil {
		t.Fatal(err)
	}
	var e errorJSON
	if jerr := json.NewDecoder(resp.Body).Decode(&e); jerr != nil || e.Error == "" {
		t.Errorf("429 body is not structured: %v %+v", jerr, e)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submission: status %d, want 429", resp.StatusCode)
	}

	// Free the slot: the queued job must run to completion.
	srv.sched.release("hog")
	select {
	case r := <-queued:
		if r.code != http.StatusOK || r.got == nil || r.got.done == nil {
			t.Fatalf("queued job: status %d, stream %+v", r.code, r.got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued job never completed after the slot freed")
	}
	st := srv.Statz()
	if st.Rejected429 != 1 {
		t.Errorf("rejected_429 = %d, want 1", st.Rejected429)
	}
	if st.Accepted != st.Completed+st.Cancelled+st.Failed {
		t.Errorf("accounting leak: %+v", st)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSchedulerPriorityOrder pins strict priority order with FIFO
// tie-break: with the slot held, a batch job queued before an
// interactive one still runs after it.
func TestSchedulerPriorityOrder(t *testing.T) {
	s := newScheduler(1, 1, 16)
	if ok, err := s.acquire(context.Background(), "hold", 0); !ok || err != nil {
		t.Fatal("failed to take the slot")
	}
	order := make(chan string, 4)
	// Enqueue deterministically: batch first, then two interactive.
	enqueue := func(name, tenant string, prio int, depth int) {
		go func() {
			ok, err := s.acquire(context.Background(), tenant, prio)
			if !ok || err != nil {
				t.Errorf("%s: acquire failed: %v", name, err)
				return
			}
			order <- name
			s.release(tenant)
		}()
		waitForDepth(t, s, depth)
	}
	enqueue("batch", "tb", PriorityBatch, 1)
	enqueue("inter1", "ti", PriorityHigh, 2)
	enqueue("inter2", "tj", PriorityHigh, 3)

	s.release("hold")
	want := []string{"inter1", "inter2", "batch"}
	for i, w := range want {
		select {
		case got := <-order:
			if got != w {
				t.Fatalf("grant %d: got %s, want %s", i, got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("grant %d (%s) never arrived", i, w)
		}
	}
}

func waitForDepth(t *testing.T, s *scheduler, depth int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for s.queueDepth() != depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", depth, s.queueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerTenantBudget pins the per-tenant carve-out: a tenant at
// its budget cannot take a third slot even though slots are free, and a
// queued other-tenant job takes it instead.
func TestSchedulerTenantBudget(t *testing.T) {
	s := newScheduler(4, 2, 16)
	for i := 0; i < 2; i++ {
		if ok, err := s.acquire(context.Background(), "big", 0); !ok || err != nil {
			t.Fatal("budget slots should be grantable")
		}
	}
	// Third job of the same tenant must queue despite two free slots.
	got := make(chan bool, 1)
	go func() {
		ok, err := s.acquire(context.Background(), "big", 0)
		// Release before reporting, so the leak check below cannot run
		// ahead of this slot's release.
		if ok && err == nil {
			s.release("big")
		}
		got <- ok && err == nil
	}()
	waitForDepth(t, s, 1)
	if s.runningTotal() != 2 {
		t.Fatalf("running %d, want 2", s.runningTotal())
	}
	// Another tenant walks straight past the capped waiter.
	if ok, err := s.acquire(context.Background(), "small", PriorityBatch); !ok || err != nil {
		t.Fatal("free slot denied to an under-budget tenant")
	}
	// Releasing one of big's slots lets the waiter in.
	s.release("big")
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("capped waiter failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("capped waiter never granted after release")
	}
	s.release("small")
	s.release("big")
	if s.runningTotal() != 0 {
		t.Fatalf("slots leaked: running %d", s.runningTotal())
	}
}

// TestSchedulerCancelWhileQueued pins that a canceled waiter leaves the
// queue and nothing leaks.
func TestSchedulerCancelWhileQueued(t *testing.T) {
	s := newScheduler(1, 1, 16)
	if ok, err := s.acquire(context.Background(), "hold", 0); !ok || err != nil {
		t.Fatal("failed to take the slot")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		admitted, err := s.acquire(ctx, "w", 0)
		if !admitted {
			err = fmt.Errorf("cancel-while-queued reported not admitted: %w", err)
		}
		done <- err
	}()
	waitForDepth(t, s, 1)
	cancel()
	if err := <-done; err == nil || ctx.Err() == nil {
		t.Fatalf("canceled acquire returned %v", err)
	}
	if s.queueDepth() != 0 {
		t.Fatal("canceled waiter still queued")
	}
	s.release("hold")
	if s.runningTotal() != 0 || s.queueDepth() != 0 {
		t.Fatal("scheduler state leaked after cancel")
	}
}
