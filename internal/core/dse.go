package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// RunResult records one optimization run of the DSE engine.
type RunResult struct {
	Algorithm string
	Objective Objective
	Mapping   Mapping
	Score     Score
	Evals     int
	Duration  time.Duration
	Seed      int64
	// Cancelled marks a run that was stopped early through its
	// cancellation context; Mapping/Score hold the best point reached
	// before the stop.
	Cancelled bool
}

// Options configures a DSE run.
type Options struct {
	// Budget is the evaluation budget per algorithm run; every algorithm
	// gets the same budget, the deterministic analogue of the paper's
	// equal running times. Required.
	Budget int
	// Seed derives each run's RNG (combined with the algorithm index) so
	// whole explorations reproduce bit-for-bit. Defaults to 1.
	Seed int64
	// Context, when non-nil, cancels in-flight runs: once it is done no
	// further evaluations are spent and Run returns the best point
	// reached so far with RunResult.Cancelled set (or the context error
	// when nothing was evaluated at all).
	Context context.Context
	// OnImprove, when non-nil, is called on every incumbent improvement.
	OnImprove func(evals int, best Score)
	// OnProgress, when non-nil, is called every ProgressEvery evaluations
	// with the current incumbent — a heartbeat for long runs that may go
	// thousands of evaluations between improvements — and once more when
	// the run completes, with the final evaluation count.
	OnProgress func(evals int, best Score)
	// ProgressEvery sets the OnProgress stride; 0 means every 500
	// evaluations.
	ProgressEvery int
}

// Exploration is the DSE engine of the paper's architecture (Figure 1,
// box 4): it runs a set of search strategies against one problem under
// identical budgets and collects the results.
type Exploration struct {
	prob    *Problem
	opts    Options
	results []RunResult
}

// NewExploration validates options and prepares an engine.
func NewExploration(prob *Problem, opts Options) (*Exploration, error) {
	if prob == nil {
		return nil, fmt.Errorf("core: nil problem")
	}
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("core: DSE budget must be positive, got %d", opts.Budget)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &Exploration{prob: prob, opts: opts}, nil
}

// Run executes one searcher and records its result. Each call derives an
// independent RNG from the exploration seed and the run ordinal, so runs
// are reproducible and order-independent in distribution.
func (e *Exploration) Run(s Searcher) (RunResult, error) {
	runIdx := len(e.results)
	seed := e.opts.Seed*1_000_003 + int64(runIdx)*7919
	rng := rand.New(rand.NewSource(seed))
	ctx, err := NewContext(e.prob, rng, e.opts.Budget)
	if err != nil {
		return RunResult{}, err
	}
	ctx.SetCancel(e.opts.Context)
	defer ctx.Close()
	ctx.OnImprove = e.opts.OnImprove
	if e.opts.OnProgress != nil {
		stride := e.opts.ProgressEvery
		if stride <= 0 {
			stride = 500
		}
		onProgress := e.opts.OnProgress
		ctx.OnEvaluate = func(_ Mapping, sc Score) {
			if ctx.Evals()%stride == 0 {
				// OnEvaluate fires before the incumbent update, so fold
				// the current evaluation in by hand to report the
				// post-update best.
				best, ok := ctx.BestScore()
				if !ok || sc.Better(best) {
					best = sc
				}
				onProgress(ctx.Evals(), best)
			}
		}
	}
	//phonocmap:wallclock only measures RunResult.Duration, the one field documented as non-contractual
	start := time.Now()
	if err := s.Search(ctx); err != nil {
		return RunResult{}, fmt.Errorf("core: %s failed: %w", s.Name(), err)
	}
	best, score, ok := ctx.Best()
	if !ok {
		if ctx.Cancelled() {
			return RunResult{}, fmt.Errorf("core: %s cancelled before evaluating any mapping: %w",
				s.Name(), e.opts.Context.Err())
		}
		return RunResult{}, fmt.Errorf("core: %s finished without evaluating any mapping", s.Name())
	}
	res := RunResult{
		Algorithm: s.Name(),
		Objective: e.prob.Objective(),
		Mapping:   best,
		Score:     score,
		Evals:     ctx.Evals(),
		//phonocmap:wallclock Duration is the one non-contractual RunResult field; differential suites strip it
		Duration: time.Since(start),
		Seed:     seed,
		// A cancellation that lands after the budget was fully spent did
		// not truncate anything; the result is complete.
		Cancelled: ctx.Cancelled() && ctx.Evals() < ctx.Budget(),
	}
	if e.opts.OnProgress != nil {
		// Final report, so observers see the exact eval count even when
		// the budget is not a multiple of the progress stride.
		e.opts.OnProgress(res.Evals, res.Score)
	}
	e.results = append(e.results, res)
	return res, nil
}

// RunAll runs every searcher in order and returns all results.
func (e *Exploration) RunAll(searchers []Searcher) ([]RunResult, error) {
	for _, s := range searchers {
		if _, err := e.Run(s); err != nil {
			return nil, err
		}
	}
	return e.Results(), nil
}

// Results returns the recorded runs in execution order.
func (e *Exploration) Results() []RunResult {
	out := make([]RunResult, len(e.results))
	copy(out, e.results)
	return out
}
