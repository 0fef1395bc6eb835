package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Spans are recorded by this benchmark around each call it makes into
// the program's packages; nothing inside the program is instrumented.
// A disabled tracer records nothing, so untraced runs pay only a branch
// per call.

// span is one timed call. Spans of one unit of work share Iter (set-up
// repetitions use negative ids); Parent is -1 for a top-level span.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Iter   int                `json:"iter"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Self   float64            `json:"self_s"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
	cost  time.Duration // time spent inside the tracer itself
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.t0).Seconds() }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(parent, iter int, name string) int {
	if !t.on {
		return -1
	}
	c0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: iter, Name: name, Start: t.since(c0)})
	t.cost += time.Since(c0)
	return id
}

// end closes span id and attaches counts to it.
func (t *tracer) end(id int, counts map[string]float64) {
	if id < 0 {
		return
	}
	c0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.since(c0)
	t.spans[id].Counts = counts
	t.cost += time.Since(c0)
}

// add records a span whose interval the caller measured itself, such
// as a pipeline stage a flow reports after it returns.
func (t *tracer) add(parent, iter int, name string, start, end float64, counts map[string]float64) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: iter, Name: name, Start: start, End: end, Counts: counts})
	return id
}

// startOf returns span id's start offset (0 when tracing is off).
func (t *tracer) startOf(id int) float64 {
	if id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Start
}

// finished returns a copy of the spans with self times filled in.
func (t *tracer) finished() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	fillSelfTimes(out)
	return out
}

// fillSelfTimes sets each span's Self to its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (concurrent calls), so their intervals are merged before subtracting.
func fillSelfTimes(spans []span) {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of the intervals clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	var clipped [][2]float64
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	total, curA, curB := 0.0, 0.0, 0.0
	for i, v := range clipped {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// layerValues derives per-layer metrics from spans. A metric named
// "<span>_s" is the median over units of work of the total time spent
// in spans of that name; any other metric is the median over units of
// work of the counts attached under its name. Metrics with no matching
// span or count are absent.
func layerValues(spans []span, names []string) map[string]float64 {
	perIter := func(f func(s *span) (float64, bool)) (float64, bool) {
		sums := map[int]float64{}
		for i := range spans {
			if v, ok := f(&spans[i]); ok {
				sums[spans[i].Iter] += v
			}
		}
		if len(sums) == 0 {
			return 0, false
		}
		var xs []float64
		for _, v := range sums {
			xs = append(xs, v)
		}
		return median(xs), true
	}
	out := map[string]float64{}
	for _, name := range names {
		if base, ok := strings.CutSuffix(name, "_s"); ok {
			if v, ok := perIter(func(s *span) (float64, bool) { return s.dur(), s.Name == base }); ok {
				out[name] = v
				continue
			}
		}
		if v, ok := perIter(func(s *span) (float64, bool) { v, ok := s.Counts[name]; return v, ok }); ok {
			out[name] = v
		}
	}
	return out
}
