package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"inductance101/internal/engine"
	"inductance101/internal/fasthenry"
	"inductance101/internal/geom"
	"inductance101/internal/layoutio"
)

// Priorities: 0 is most urgent (interactive), 2 is batch. Jobs at the
// same priority run in arrival order.
const (
	PriorityHigh  = 0
	PriorityBatch = 2
	numPriorities = 3
)

// Limits bounds what a single job may ask for. The server rejects
// over-limit requests with a structured 400 before any work starts, so
// a hostile request cannot pin a worker on an absurd sweep.
type Limits struct {
	MaxPoints   int // sweep points per job
	MaxSegments int // layout segments per job
}

// Geometry sanity bounds (SI metres): on-chip and package structures
// live comfortably inside them; anything outside is a unit mistake or
// a hostile request, and the kernels would only produce garbage from
// it.
const (
	minDimension = 1e-9 // 1 nm
	maxLength    = 1.0  // 1 m
	maxWidth     = 1e-2 // 1 cm
	maxCoord     = 1.0  // 1 m from the origin
	minFreqHz    = 1.0
	maxFreqHz    = 1e15
	// maxPlanesPerJob bounds the conductor planes one job may mesh: each
	// plane adds ~2·PlaneNW² filaments and PlaneNW² nodes (unknowns of
	// the port solve, and of the dense oracle's nodal system), so the
	// cap (together with the planenw range check) bounds the work a
	// single request can pin a worker with.
	maxPlanesPerJob = 8
)

// jobJSON is the wire schema of one extraction job. Geometry reuses the
// layoutio layout schema verbatim, so a layout file accepted by the
// CLIs is accepted by the server unchanged.
type jobJSON struct {
	Tenant   string         `json:"tenant,omitempty"`
	Priority *int           `json:"priority,omitempty"`
	Layout   *layoutio.File `json:"layout"`
	Port     portJSON       `json:"port"`
	Shorts   [][2]string    `json:"shorts,omitempty"`
	FStartHz float64        `json:"fstart_hz"`
	FStopHz  float64        `json:"fstop_hz"`
	Points   int            `json:"points"`
	Config   jobConfigJSON  `json:"config,omitempty"`
}

type portJSON struct {
	Plus  string `json:"plus"`
	Minus string `json:"minus"`
}

// jobConfigJSON is the per-job slice of engine.Config a tenant may
// override. Workers is advisory: it is clamped to the tenant's worker
// budget so one request cannot grab the whole machine.
type jobConfigJSON struct {
	Solver      string  `json:"solver,omitempty"`      // dense | iterative | nested | auto
	ACATol      float64 `json:"acatol,omitempty"`      // 0 = default
	Workers     int     `json:"workers,omitempty"`     // 0 = 1; clamped to the tenant budget
	KernelCache string  `json:"kernelcache,omitempty"` // shared | private | off (default shared)
	Sweep       string  `json:"sweep,omitempty"`       // exact | adaptive | auto (default auto)
	SweepTol    float64 `json:"sweeptol,omitempty"`    // 0 = default (1e-6)
	PlaneNW     int     `json:"planenw,omitempty"`     // plane mesh cells per axis; 0 = default
}

// job is a decoded, validated request ready to schedule.
type job struct {
	tenant      string
	prio        int
	layout      *geom.Layout
	segs        []int
	port        fasthenry.Port
	shorts      [][2]string
	freqs       []float64
	cfg         engine.Config
	kernelCache string
}

// decodeJob parses and validates one job document. Every failure is a
// client error: the returned message is safe to hand back verbatim in
// a structured 400 body.
func decodeJob(r io.Reader, lim Limits, tenantBudget int) (*job, error) {
	var doc jobJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("invalid job JSON: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("invalid job JSON: trailing data after the job document")
	}

	j := &job{tenant: doc.Tenant, prio: 1}
	if j.tenant == "" {
		j.tenant = "anon"
	}
	if doc.Priority != nil {
		if *doc.Priority < PriorityHigh || *doc.Priority >= numPriorities {
			return nil, fmt.Errorf("priority %d out of range [%d, %d]", *doc.Priority, PriorityHigh, numPriorities-1)
		}
		j.prio = *doc.Priority
	}

	if doc.Layout == nil {
		return nil, fmt.Errorf("missing layout")
	}
	if n := len(doc.Layout.Segments); n == 0 || n > lim.MaxSegments {
		return nil, fmt.Errorf("layout has %d segments, want 1..%d", n, lim.MaxSegments)
	}
	for i, s := range doc.Layout.Segments {
		switch {
		case !isFinite(s.Length) || s.Length < minDimension || s.Length > maxLength:
			return nil, fmt.Errorf("segment %d length %g outside [%g, %g] m", i, s.Length, minDimension, maxLength)
		case !isFinite(s.Width) || s.Width < minDimension || s.Width > maxWidth:
			return nil, fmt.Errorf("segment %d width %g outside [%g, %g] m", i, s.Width, minDimension, maxWidth)
		case !isFinite(s.X0) || !isFinite(s.Y0) || math.Abs(s.X0) > maxCoord || math.Abs(s.Y0) > maxCoord:
			return nil, fmt.Errorf("segment %d origin (%g, %g) outside +-%g m", i, s.X0, s.Y0, maxCoord)
		}
	}
	for i, l := range doc.Layout.Layers {
		if !isFinite(l.Z) || !isFinite(l.Thickness) || !isFinite(l.SheetRho) || !isFinite(l.HBelow) {
			return nil, fmt.Errorf("layer %d has a non-finite parameter", i)
		}
	}
	if n := len(doc.Layout.Planes); n > maxPlanesPerJob {
		return nil, fmt.Errorf("layout has %d planes, want at most %d", n, maxPlanesPerJob)
	}
	for i, p := range doc.Layout.Planes {
		switch {
		case !isFinite(p.X0) || !isFinite(p.Y0) || !isFinite(p.X1) || !isFinite(p.Y1):
			return nil, fmt.Errorf("plane %d has a non-finite extent", i)
		case p.X1-p.X0 < minDimension || p.Y1-p.Y0 < minDimension:
			return nil, fmt.Errorf("plane %d extent below %g m", i, minDimension)
		case p.X1-p.X0 > maxLength || p.Y1-p.Y0 > maxLength:
			return nil, fmt.Errorf("plane %d extent above %g m", i, maxLength)
		case math.Abs(p.X0) > maxCoord || math.Abs(p.Y0) > maxCoord || math.Abs(p.X1) > maxCoord || math.Abs(p.Y1) > maxCoord:
			return nil, fmt.Errorf("plane %d outside +-%g m", i, maxCoord)
		}
		for hi, h := range p.Holes {
			if !isFinite(h.X0) || !isFinite(h.Y0) || !isFinite(h.X1) || !isFinite(h.Y1) {
				return nil, fmt.Errorf("plane %d hole %d has a non-finite extent", i, hi)
			}
		}
	}
	lay, err := doc.Layout.ToLayout()
	if err != nil {
		return nil, err
	}
	j.layout = lay
	for i := range lay.Segments {
		j.segs = append(j.segs, i)
	}

	// Node names must come from the layout: the solver would silently
	// mint an isolated node for a typo and fail much later with a
	// disconnected-network error, so catch it here with the name.
	nodes := make(map[string]bool)
	for _, s := range doc.Layout.Segments {
		nodes[s.NodeA] = true
		nodes[s.NodeB] = true
	}
	// Plane edge rails are first-class electrical nodes: ports and
	// shorts may land on them.
	for _, p := range doc.Layout.Planes {
		for _, n := range []string{p.NodeLeft, p.NodeRight, p.NodeBottom, p.NodeTop} {
			if n != "" {
				nodes[n] = true
			}
		}
	}
	if doc.Port.Plus == "" || doc.Port.Minus == "" {
		return nil, fmt.Errorf("port needs both plus and minus node names")
	}
	if !nodes[doc.Port.Plus] {
		return nil, fmt.Errorf("port plus node %q not in the layout", doc.Port.Plus)
	}
	if !nodes[doc.Port.Minus] {
		return nil, fmt.Errorf("port minus node %q not in the layout", doc.Port.Minus)
	}
	j.port = fasthenry.Port{Plus: doc.Port.Plus, Minus: doc.Port.Minus}
	for i, sh := range doc.Shorts {
		if !nodes[sh[0]] || !nodes[sh[1]] {
			return nil, fmt.Errorf("short %d references a node not in the layout (%q, %q)", i, sh[0], sh[1])
		}
	}
	j.shorts = doc.Shorts

	switch {
	case !isFinite(doc.FStartHz) || doc.FStartHz < minFreqHz:
		return nil, fmt.Errorf("fstart_hz %g below %g", doc.FStartHz, minFreqHz)
	case !isFinite(doc.FStopHz) || doc.FStopHz > maxFreqHz:
		return nil, fmt.Errorf("fstop_hz %g above %g", doc.FStopHz, maxFreqHz)
	case doc.FStopHz < doc.FStartHz:
		return nil, fmt.Errorf("fstop_hz %g below fstart_hz %g", doc.FStopHz, doc.FStartHz)
	}
	if doc.Points < 1 || doc.Points > lim.MaxPoints {
		return nil, fmt.Errorf("points %d out of range [1, %d]", doc.Points, lim.MaxPoints)
	}
	j.freqs = fasthenry.LogSpace(doc.FStartHz, doc.FStopHz, doc.Points)

	cfg := engine.Config{}
	if doc.Config.Solver != "" {
		mode, err := fasthenry.ParseSolveMode(doc.Config.Solver)
		if err != nil {
			return nil, err
		}
		cfg.SolveMode = mode
	}
	if !isFinite(doc.Config.ACATol) || doc.Config.ACATol < 0 {
		return nil, fmt.Errorf("acatol %g must be a finite non-negative tolerance", doc.Config.ACATol)
	}
	cfg.ACATol = doc.Config.ACATol
	if doc.Config.Workers < 0 {
		return nil, fmt.Errorf("workers %d must be non-negative", doc.Config.Workers)
	}
	cfg.Workers = doc.Config.Workers
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Workers > tenantBudget {
		cfg.Workers = tenantBudget
	}
	sm, err := engine.ParseSweepMode(doc.Config.Sweep)
	if err != nil {
		return nil, err
	}
	cfg.SweepMode = sm
	if !isFinite(doc.Config.SweepTol) || doc.Config.SweepTol < 0 {
		return nil, fmt.Errorf("sweeptol %g must be a finite non-negative tolerance", doc.Config.SweepTol)
	}
	cfg.SweepTol = doc.Config.SweepTol
	cfg.PlaneNW = doc.Config.PlaneNW
	switch doc.Config.KernelCache {
	case "", "shared":
		j.kernelCache = "shared"
	case "private":
		j.kernelCache = "private"
	case "off":
		j.kernelCache = "off"
	default:
		return nil, fmt.Errorf("kernelcache must be shared, private or off, got %q", doc.Config.KernelCache)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	j.cfg = cfg
	return j, nil
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
