package scenario

import (
	"context"
	"time"

	"phonocmap/internal/core"
	"phonocmap/internal/search"
)

// Outcome is one executed scenario: the search's winning run, the
// analysis report its spec requested, and the run's progress record.
type Outcome struct {
	Run core.RunResult
	// Report is nil when the spec requests no analyses or the run was
	// cancelled.
	Report *Report
	// Events are the incumbent improvements in arrival order — the order
	// a store.Entry keeps them in. IslandEvals holds each island's final
	// evaluation count, one entry per seed.
	Events      []TraceEvent
	IslandEvals []int
}

// Trace assembles the outcome's span record, timed by the optimizer's
// own clock.
func (o Outcome) Trace() *RunTrace {
	return AssembleTrace(o.Events, o.IslandEvals, float64(o.Run.Duration)/float64(time.Millisecond))
}

// Execute runs the compiled scenario end to end. It is the one executor
// behind every front end (the CLI, the runners, sweep cells, service
// jobs): the search — a single seeded exploration, or islands mode when
// Seeds > 1 — recorded through t, then the spec's analyses on the
// winning mapping. Equal specs therefore produce bit-identical outcomes
// wherever they run; t never changes the result.
//
// ctx cancels the search. A cancelled run keeps its best-so-far mapping
// (Run.Cancelled set) but gets no report: the analyses take no
// cancellation context, so running them would keep working long after
// the stop was asked for. A search cancelled before its first
// evaluation returns an error wrapping ctx's.
//
// t may be nil. Callers that read progress while the run is in flight
// pass their own tracer, which must record this run only.
func (c *Compiled) Execute(ctx context.Context, t *Tracer) (Outcome, error) {
	if t == nil {
		t = NewTracer(c.Spec.Seeds)
	}
	run, err := c.search(ctx, t)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Run: run, Events: t.Events(), IslandEvals: t.IslandEvals()}
	if !run.Cancelled {
		if out.Report, err = c.Analyze(run.Mapping, run.Score); err != nil {
			return Outcome{}, err
		}
	}
	return out, nil
}

// search runs the spec's search with the seed derivation every backend
// shares, feeding t from the search's callbacks.
func (c *Compiled) search(ctx context.Context, t *Tracer) (core.RunResult, error) {
	if c.Spec.Seeds > 1 {
		factory := func() (core.Searcher, error) { return search.New(c.Spec.Algorithm) }
		best, _, err := core.RunParallel(c.Problem, factory, core.ParallelOptions{
			Budget:     c.Spec.Budget,
			Seeds:      core.SeedSequence(c.Spec.Seed, c.Spec.Seeds),
			Workers:    0, // one scenario's islands may use the whole machine
			Context:    ctx,
			OnImprove:  t.onImprove,
			OnProgress: t.onProgress,
		})
		return best, err
	}
	alg, err := search.New(c.Spec.Algorithm)
	if err != nil {
		return core.RunResult{}, err
	}
	ex, err := core.NewExploration(c.Problem, core.Options{
		Budget:     c.Spec.Budget,
		Seed:       c.Spec.Seed,
		Context:    ctx,
		OnImprove:  func(evals int, best core.Score) { t.onImprove(0, evals, best) },
		OnProgress: func(evals int, best core.Score) { t.onProgress(0, evals, best) },
	})
	if err != nil {
		return core.RunResult{}, err
	}
	return ex.Run(alg)
}
