package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"inductance101/internal/layoutio"
)

// busFile is an n-wire parallel bus as the wire schema: wire 0 is the
// signal (nodes s0/s1), the rest are grounds (g<i>a/g<i>b), pitch
// apart. Wide buses make each sweep point cost real solve time, which
// the disconnect test needs.
func busFile(n int, pitch float64) *layoutio.File {
	f := &layoutio.File{
		Layers: []layoutio.LayerJSON{
			{Name: "M6", Z: 6e-6, Thickness: 1.2e-6, SheetRho: 0.018, HBelow: 1.1e-6},
		},
	}
	for i := 0; i < n; i++ {
		na, nb := fmt.Sprintf("g%da", i), fmt.Sprintf("g%db", i)
		net := "GND"
		if i == 0 {
			na, nb, net = "s0", "s1", "sig"
		}
		f.Segments = append(f.Segments, layoutio.SegmentJSON{
			Layer: 0, Dir: "X", X0: 0, Y0: float64(i) * pitch,
			Length: 2e-3, Width: 4e-6, Net: net, NodeA: na, NodeB: nb,
		})
	}
	return f
}

// busShorts closes the busFile loop: signal far end onto the ground
// comb, and the grounds tied together at both ends.
func busShorts(n int) [][2]string {
	shorts := [][2]string{{"s1", "g1b"}}
	for i := 1; i < n-1; i++ {
		shorts = append(shorts,
			[2]string{fmt.Sprintf("g%db", i), fmt.Sprintf("g%db", i+1)},
			[2]string{fmt.Sprintf("g%da", i), fmt.Sprintf("g%da", i+1)})
	}
	return shorts
}

// TestManyTenantsConflictingConfigsRace drives the server with several
// tenants whose jobs disagree about everything configurable — solver
// mode, cache mode, priority — all multiplexed over the
// one shared bounded cache. Run under -race this is the server's data
// integrity check; the assertions pin the accounting invariant and the
// byte cap.
func TestManyTenantsConflictingConfigsRace(t *testing.T) {
	srv, ts := newTestServer(t, Options{
		Workers:       4,
		TenantWorkers: 2,
		QueueDepth:    256,
		CacheBytes:    1 << 20, // small enough that varied geometry evicts
	})

	type variant struct {
		solver string
		cache  string
		prio   int
	}
	variants := []variant{
		{"dense", "shared", 0},
		{"iterative", "shared", 1},
		{"iterative", "private", 2},
		{"nested", "shared", 1},
		{"dense", "off", 2},
		{"auto", "shared", 0},
	}

	const tenants = 6
	const jobsPerTenant = 4
	var wg sync.WaitGroup
	errs := make(chan string, tenants*jobsPerTenant)
	for ti := 0; ti < tenants; ti++ {
		for ji := 0; ji < jobsPerTenant; ji++ {
			wg.Add(1)
			v := variants[(ti+ji)%len(variants)]
			// Distinct pitch per (tenant, job) → distinct kernel keys, so
			// the shared cache churns and evicts under the 1 MiB cap.
			pitch := 10e-6 + float64(ti*jobsPerTenant+ji)*1e-6
			tenant := string(rune('a' + ti))
			go func() {
				defer wg.Done()
				body := testJob(t, func(j *jobJSON) {
					j.Tenant = tenant
					p := v.prio
					j.Priority = &p
					j.Layout = testLayout(pitch)
					j.Points = 2
					j.Config = jobConfigJSON{Solver: v.solver, KernelCache: v.cache, Workers: 2}
				})
				code, got := postJob(t, ts.URL, body)
				if code != http.StatusOK || got == nil || got.done == nil || len(got.points) != 2 {
					errs <- tenant
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("tenant %s: job did not complete cleanly", e)
	}

	st := srv.Statz()
	if want := uint64(tenants * jobsPerTenant); st.Accepted != want || st.Completed != want {
		t.Errorf("accepted/completed = %d/%d, want %d", st.Accepted, st.Completed, want)
	}
	if st.Accepted != st.Completed+st.Cancelled+st.Failed {
		t.Errorf("accounting leak: %+v", st)
	}
	if st.Cache.Bytes > st.Cache.CapBytes {
		t.Errorf("shared cache over cap: %d > %d bytes", st.Cache.Bytes, st.Cache.CapBytes)
	}
	if st.Running != 0 || st.QueueDepth != 0 {
		t.Errorf("slots leaked: running=%d queued=%d", st.Running, st.QueueDepth)
	}
}

// TestClientDisconnectFreesWorkers starts streaming sweeps, kills the
// clients mid-stream, and asserts the cancellations free their worker
// slots: the scheduler drains to zero and a fresh job still completes.
func TestClientDisconnectFreesWorkers(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2, TenantWorkers: 2, QueueDepth: 64})

	// A job heavy enough that a disconnect after the first streamed
	// point always lands with hundreds of points (several ms each) left.
	longBody := func(i int) []byte {
		return testJob(t, func(j *jobJSON) {
			j.Tenant = "flaky"
			j.Layout = busFile(12, 10e-6+float64(i)*1e-6)
			j.Port = portJSON{Plus: "s0", Minus: "g1a"}
			j.Shorts = busShorts(12)
			j.Points = 256
			// Pin the per-point streaming path: auto would adapt at this
			// point count and buffer the sweep before streaming.
			j.Config.Sweep = "exact"
		})
	}

	const dropped = 4
	var wg sync.WaitGroup
	for i := 0; i < dropped; i++ {
		wg.Add(1)
		i := i
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			body := longBody(i)
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // cancelled before the response line; also fine
			}
			defer resp.Body.Close()
			// Read one streamed point to prove the job is running, then
			// vanish.
			br := bufio.NewReader(resp.Body)
			_, _ = br.ReadBytes('\n')
			cancel()
		}()
	}
	wg.Wait()

	// Every dropped job must hand its slot back.
	waitFor(t, 10*time.Second, func() bool {
		return srv.sched.runningTotal() == 0 && srv.sched.queueDepth() == 0
	})

	// The freed capacity is usable: a well-behaved job completes.
	code, got := postJob(t, ts.URL, testJob(t))
	if code != http.StatusOK || got == nil || got.done == nil {
		t.Fatalf("post-disconnect job: status %d, stream %+v", code, got)
	}

	st := srv.Statz()
	if st.Accepted != st.Completed+st.Cancelled+st.Failed {
		t.Errorf("accounting leak after disconnects: %+v", st)
	}
	if st.Cancelled == 0 {
		t.Errorf("no job recorded as cancelled after %d mid-stream disconnects", dropped)
	}
}
