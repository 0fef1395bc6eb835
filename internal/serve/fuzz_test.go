package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzJobRequest throws arbitrary bytes at the job endpoint. The
// contract under fuzzing: the server never panics, and every rejection
// is a structured JSON error body with the matching status code —
// malformed JSON, NaN/Inf geometry and absurd sweeps are all client
// errors, not crashes. Limits are kept tiny so an accidentally valid
// mutation stays cheap to actually solve.
func FuzzJobRequest(f *testing.F) {
	valid, err := json.Marshal(jobJSON{
		Tenant:   "fuzz",
		Layout:   testLayout(15e-6),
		Port:     portJSON{Plus: "s0", Minus: "g0"},
		Shorts:   testShorts(),
		FStartHz: 1e9, FStopHz: 1e10, Points: 2,
		Config: jobConfigJSON{Solver: "dense", Workers: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{`))
	f.Add([]byte(`{"layout":null,"port":{},"points":0}`))
	f.Add([]byte(`{"fstart_hz":1e999}`))
	f.Add(bytes.Replace(valid, []byte(`"points":2`), []byte(`"points":99999999`), 1))
	f.Add(bytes.Replace(valid, []byte(`2e-05`), []byte(`1e309`), 1))

	srv, err := New(Options{
		Workers:      1,
		QueueDepth:   4,
		MaxPoints:    4,
		MaxSegments:  8,
		MaxBodyBytes: 1 << 16,
	})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req) // must not panic, whatever body holds

		switch rr.Code {
		case http.StatusOK:
			// A mutation that is a real job: the stream must be complete
			// (terminated by the done line).
			if !bytes.Contains(rr.Body.Bytes(), []byte(`"done":true`)) {
				t.Fatalf("200 stream without a done line: %q", rr.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusTooManyRequests:
			var e errorJSON
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil {
				t.Fatalf("status %d with a non-JSON body %q: %v", rr.Code, rr.Body.Bytes(), err)
			}
			if e.Error == "" {
				t.Fatalf("status %d with an empty error message", rr.Code)
			}
		default:
			t.Fatalf("unexpected status %d (body %q)", rr.Code, rr.Body.Bytes())
		}
	})
}
