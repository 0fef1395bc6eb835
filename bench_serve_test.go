package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inductance101/internal/serve"
)

// TestBenchServeSnapshot is the extraction-service load harness: it
// fires ≥1000 concurrent sweep jobs from 16 tenants with varied
// geometry at an in-process server with a deliberately small kernel
// cache, then asserts the service contract under saturation —
//
//   - every accepted job runs to completion (zero dropped-but-accepted),
//   - the shared cache never exceeds its byte cap (sampled live), and
//   - no job went through the cache (sweep jobs evaluate their filament
//     kernels directly) —
//
// and writes throughput plus p50/p99 latency to BENCH_serve.json. It
// only runs when BENCH_SERVE=1; regenerate with scripts/bench_serve.sh.
func TestBenchServeSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SERVE") == "" {
		t.Skip("set BENCH_SERVE=1 to write BENCH_serve.json")
	}

	const (
		jobs       = 1000
		tenants    = 16
		geometries = 64        // distinct pitches → distinct kernel keys
		cacheCap   = 512 << 10 // small enough that 64 geometries evict
	)
	srv, err := serve.New(serve.Options{
		Workers:       4,
		TenantWorkers: 2,
		QueueDepth:    jobs + 64, // admit the whole burst: this harness measures completion, not shedding
		CacheBytes:    cacheCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{
		Timeout:   5 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 256},
	}

	jobBody := func(tenant string, pitchIdx int) []byte {
		pitch := 10e-6 + float64(pitchIdx)*0.5e-6
		doc := fmt.Sprintf(`{"tenant":%q,"priority":1,
  "layout":{"layers":[{"name":"M6","z":6e-6,"thickness":1.2e-6,"sheet_rho":0.018,"h_below":1.1e-6}],
    "segments":[
      {"layer":0,"dir":"X","x0":0,"y0":0,"length":2e-3,"width":8e-6,"net":"sig","node_a":"s0","node_b":"s1"},
      {"layer":0,"dir":"X","x0":0,"y0":%g,"length":2e-3,"width":8e-6,"net":"GND","node_a":"g0","node_b":"g1"}]},
  "port":{"plus":"s0","minus":"g0"},"shorts":[["s1","g1"]],
  "fstart_hz":1e9,"fstop_hz":2e10,"points":2,
  "config":{"solver":"dense","workers":1}}`, tenant, -pitch)
		return []byte(doc)
	}

	// Live cap watchdog: samples the shared cache while the burst runs.
	stopSampling := make(chan struct{})
	var capViolations atomic.Uint64
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			cs := srv.CacheStats()
			if cs.Bytes > cs.CapBytes {
				capViolations.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		completed atomic.Uint64
		dropped   atomic.Uint64 // accepted (HTTP 200) but no done line
		other     atomic.Uint64 // any non-200 status
	)
	start := time.Now()
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		body := jobBody(fmt.Sprintf("tenant%02d", i%tenants), i%geometries)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			resp, err := client.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
			if err != nil {
				other.Add(1)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				other.Add(1)
				return
			}
			done := false
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if bytes.Contains(sc.Bytes(), []byte(`"done":true`)) {
					done = true
				}
			}
			if !done || sc.Err() != nil {
				dropped.Add(1)
				return
			}
			completed.Add(1)
			mu.Lock()
			latencies = append(latencies, time.Since(t0))
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(stopSampling)
	samplerWG.Wait()

	// The service contract under load.
	if n := dropped.Load(); n != 0 {
		t.Errorf("%d accepted jobs were dropped without a done line", n)
	}
	if n := other.Load(); n != 0 {
		t.Errorf("%d jobs failed or were rejected (queue was sized to admit the burst)", n)
	}
	if n := capViolations.Load(); n != 0 {
		t.Errorf("cache exceeded its byte cap in %d samples", n)
	}
	st := srv.Statz()
	if st.Accepted != st.Completed+st.Cancelled+st.Failed {
		t.Errorf("accounting leak: %+v", st)
	}
	if st.Cache.Hits != 0 || st.Cache.Misses != 0 {
		t.Errorf("sweep jobs went through the shared kernel cache: %+v", st.Cache)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return float64(latencies[i].Microseconds()) / 1e3
	}
	doc := struct {
		Note            string  `json:"note"`
		Jobs            int     `json:"jobs"`
		Tenants         int     `json:"tenants"`
		Geometries      int     `json:"geometries"`
		WorkerSlots     int     `json:"worker_slots"`
		CacheCapBytes   int64   `json:"cache_cap_bytes"`
		Completed       uint64  `json:"completed"`
		Dropped         uint64  `json:"dropped_accepted"`
		WallSeconds     float64 `json:"wall_seconds"`
		ThroughputJobsS float64 `json:"throughput_jobs_per_s"`
		P50Ms           float64 `json:"latency_p50_ms"`
		P99Ms           float64 `json:"latency_p99_ms"`
		CacheHits       uint64  `json:"cache_hits"`
		CacheMisses     uint64  `json:"cache_misses"`
		CacheEvictions  uint64  `json:"cache_evictions"`
		CacheBytes      int64   `json:"cache_bytes_final"`
	}{
		Note:            "extraction-service load snapshot; regenerate with scripts/bench_serve.sh",
		Jobs:            jobs,
		Tenants:         tenants,
		Geometries:      geometries,
		WorkerSlots:     4,
		CacheCapBytes:   cacheCap,
		Completed:       completed.Load(),
		Dropped:         dropped.Load(),
		WallSeconds:     wall.Seconds(),
		ThroughputJobsS: float64(completed.Load()) / wall.Seconds(),
		P50Ms:           pct(0.50),
		P99Ms:           pct(0.99),
		CacheHits:       st.Cache.Hits,
		CacheMisses:     st.Cache.Misses,
		CacheEvictions:  st.Cache.Evictions,
		CacheBytes:      st.Cache.Bytes,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serve.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_serve.json: %.0f jobs/s, p50 %.1f ms, p99 %.1f ms",
		doc.ThroughputJobsS, doc.P50Ms, doc.P99Ms)
}
