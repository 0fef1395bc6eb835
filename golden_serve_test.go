package repro

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// wallNsField masks the one nondeterministic value in /statz: per-stage
// wall-clock nanoseconds.
var wallNsField = regexp.MustCompile(`"wall_ns": \d+`)

// TestGoldenInductd pins the daemon's observable HTTP surface the same
// way the other five tools pin their stdout: one deterministic job
// (serial worker, dense solver) is posted to a live inductd, and the
// NDJSON stream, /healthz and /statz documents are captured into
// testdata/golden/inductd.txt.
func TestGoldenInductd(t *testing.T) {
	dir := buildTools(t)

	cmd := exec.Command(filepath.Join(dir, "inductd"),
		"-addr", "127.0.0.1:0", "-workers", "1", "-tenantworkers", "1",
		"-queue", "4", "-maxpoints", "128")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The daemon announces its bound address on stderr once the listener
	// is open.
	line, err := bufio.NewReader(stderr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading inductd startup line: %v", err)
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected startup line %q", line)
	}
	base := strings.TrimSpace(line[i+len(marker):])

	job := `{"tenant":"golden","priority":1,
  "layout":{"layers":[{"name":"M6","z":6e-6,"thickness":1.2e-6,"sheet_rho":0.018,"h_below":1.1e-6}],
    "segments":[
      {"layer":0,"dir":"X","x0":0,"y0":0,"length":2e-3,"width":8e-6,"net":"sig","node_a":"s0","node_b":"s1"},
      {"layer":0,"dir":"X","x0":0,"y0":-2e-5,"length":2e-3,"width":8e-6,"net":"GND","node_a":"g0","node_b":"g1"},
      {"layer":0,"dir":"X","x0":0,"y0":2e-5,"length":2e-3,"width":8e-6,"net":"GND","node_a":"h0","node_b":"h1"}]},
  "port":{"plus":"s0","minus":"g0"},"shorts":[["s1","g1"],["g1","h1"],["g0","h0"]],
  "fstart_hz":1e8,"fstop_hz":2e10,"points":5,
  "config":{"solver":"dense","workers":1}}`

	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string) []byte {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return body
	}

	// The same structure swept adaptively: 96 points, most filled by the
	// rational fit and marked "interp":true. Dense anchor solves under
	// one worker keep the stream bit-deterministic.
	adaptiveJob := strings.Replace(job, `"points":5`, `"points":96`, 1)
	adaptiveJob = strings.Replace(adaptiveJob, `"workers":1`,
		`"workers":1,"sweep":"adaptive","sweeptol":1e-6`, 1)

	post := func(body string) []byte {
		resp, err := client.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/sweep: status %d\n%s", resp.StatusCode, stream)
		}
		return stream
	}
	stream := post(job)
	adaptiveStream := post(adaptiveJob)
	if !bytes.Contains(adaptiveStream, []byte(`"interp":true`)) {
		t.Fatalf("adaptive stream has no interpolated rows:\n%s", adaptiveStream)
	}

	var doc bytes.Buffer
	doc.WriteString("== POST /v1/sweep ==\n")
	doc.Write(stream)
	doc.WriteString("== POST /v1/sweep (adaptive) ==\n")
	doc.Write(adaptiveStream)
	doc.WriteString("== GET /healthz ==\n")
	doc.Write(get("/healthz"))
	doc.WriteString("== GET /statz ==\n")
	doc.Write(wallNsField.ReplaceAll(get("/statz"), []byte(`"wall_ns": <masked>`)))

	checkGolden(t, "inductd", doc.Bytes())
}
