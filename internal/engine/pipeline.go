package engine

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// StageStat is one pipeline stage's cost/diagnostic record.
type StageStat struct {
	Name string
	Wall time.Duration
	// Note is the stage's one-line diagnostic (e.g. "kept 8.3% of
	// mutuals", "order 32"); empty when the stage had nothing to say.
	Note string
	// Err records a failed stage (the pipeline stops at the first one).
	Err error
}

// Pipeline sequences the named stages of one flow (geometry → extract
// → sparsify → model → MOR → sim → measure) under a shared
// context.Context, recording per-stage wall time and diagnostics. It
// replaces the ad-hoc wiring each CLI used to carry: the CLI builds a
// Config, the flow runs its stages through the pipeline, and the
// report comes out uniform.
type Pipeline struct {
	mu     sync.Mutex
	stages []StageStat
}

// Pipeline starts an empty stage log for one flow of the session.
func (s *Session) Pipeline() *Pipeline { return &Pipeline{} }

// Run executes one stage: it refuses to start once ctx is cancelled,
// times fn, records the stage, and returns fn's error wrapped with the
// stage name. fn's note string lands in the stage record.
func (p *Pipeline) Run(ctx context.Context, name string, fn func(context.Context) (string, error)) error {
	if err := ctx.Err(); err != nil {
		p.record(StageStat{Name: name, Err: err})
		return fmt.Errorf("engine: stage %s: %w", name, err)
	}
	start := time.Now()
	note, err := fn(ctx)
	p.record(StageStat{Name: name, Wall: time.Since(start), Note: note, Err: err})
	if err != nil {
		return fmt.Errorf("engine: stage %s: %w", name, err)
	}
	return nil
}

func (p *Pipeline) record(st StageStat) {
	p.mu.Lock()
	p.stages = append(p.stages, st)
	p.mu.Unlock()
}

// Stages returns a copy of the per-stage records in execution order.
func (p *Pipeline) Stages() []StageStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]StageStat(nil), p.stages...)
}
