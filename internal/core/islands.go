package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ParallelOptions configures a multi-seed islands run: N independent
// seeded searches of the same problem executed concurrently, keeping the
// best result. Each island receives the full Budget, its own cloned
// Problem, its own Searcher instance and an RNG derived from its seed
// exactly as a sequential Exploration run with that seed would, so the
// islands reproduce the corresponding sequential runs bit-for-bit
// regardless of scheduling.
type ParallelOptions struct {
	// Budget is the evaluation budget per island. Required.
	Budget int
	// Seeds lists one exploration seed per island. Required.
	Seeds []int64
	// Workers bounds concurrent islands; <= 0 means GOMAXPROCS.
	Workers int
	// Context, when non-nil, cancels all islands.
	Context context.Context
	// OnImprove, when non-nil, is called on every incumbent improvement
	// of any island. Calls may arrive concurrently from all islands.
	OnImprove func(island int, evals int, best Score)
	// OnProgress, when non-nil, is a periodic per-island heartbeat (see
	// Options.OnProgress). Calls may arrive concurrently.
	OnProgress func(island int, evals int, best Score)
	// ProgressEvery sets the OnProgress stride (default 500).
	ProgressEvery int
}

// RunParallel executes one seeded search per entry of opts.Seeds on a
// bounded worker pool and returns the best result plus the per-island
// results in seed order. The factory supplies a fresh Searcher per
// island (searchers are not required to be safe for concurrent use).
//
// Ties between islands break toward the lower island index, so the
// winner is deterministic regardless of completion order. On
// cancellation the islands that evaluated at least one mapping
// contribute partial results (marked Cancelled); RunParallel fails only
// when no island produced any result.
func RunParallel(prob *Problem, factory func() (Searcher, error), opts ParallelOptions) (RunResult, []RunResult, error) {
	if prob == nil {
		return RunResult{}, nil, fmt.Errorf("core: nil problem")
	}
	if factory == nil {
		return RunResult{}, nil, fmt.Errorf("core: nil searcher factory")
	}
	if len(opts.Seeds) == 0 {
		return RunResult{}, nil, fmt.Errorf("core: islands mode needs at least one seed")
	}
	if opts.Budget <= 0 {
		return RunResult{}, nil, fmt.Errorf("core: DSE budget must be positive, got %d", opts.Budget)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(opts.Seeds) {
		workers = len(opts.Seeds)
	}

	results := make([]RunResult, len(opts.Seeds))
	errs := make([]error, len(opts.Seeds))
	done := make([]bool, len(opts.Seeds))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, seed := range opts.Seeds {
		wg.Add(1)
		go func(island int, seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s, err := factory()
			if err != nil {
				errs[island] = err
				return
			}
			exOpts := Options{
				Budget:        opts.Budget,
				Seed:          seed,
				Context:       opts.Context,
				ProgressEvery: opts.ProgressEvery,
			}
			if opts.OnImprove != nil {
				exOpts.OnImprove = func(evals int, best Score) { opts.OnImprove(island, evals, best) }
			}
			if opts.OnProgress != nil {
				exOpts.OnProgress = func(evals int, best Score) { opts.OnProgress(island, evals, best) }
			}
			ex, err := NewExploration(prob.Clone(), exOpts)
			if err != nil {
				errs[island] = err
				return
			}
			res, err := ex.Run(s)
			if err != nil {
				errs[island] = err
				return
			}
			results[island] = res
			done[island] = true
		}(i, seed)
	}
	wg.Wait()

	var best RunResult
	var have bool
	all := make([]RunResult, 0, len(opts.Seeds))
	var firstErr error
	for i := range opts.Seeds {
		if done[i] {
			all = append(all, results[i])
			if !have || results[i].Score.Better(best.Score) {
				best = results[i]
				have = true
			}
		} else if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	// A real failure (not a cancellation race) poisons the whole run even
	// when other islands finished: partial answers to buggy requests are
	// worse than errors.
	if firstErr != nil && !errors.Is(firstErr, context.Canceled) && !errors.Is(firstErr, context.DeadlineExceeded) {
		return RunResult{}, nil, firstErr
	}
	if !have {
		if firstErr != nil {
			return RunResult{}, nil, firstErr
		}
		return RunResult{}, nil, fmt.Errorf("core: no island produced a result")
	}
	// The multi-seed result is only complete when every island ran to its
	// full budget: even if the winning island finished before the
	// cancellation, a truncated or missing island means a full re-run
	// could still find something better, so the best is marked Cancelled.
	for _, r := range all {
		if r.Cancelled {
			best.Cancelled = true
		}
	}
	if firstErr != nil || len(all) < len(opts.Seeds) {
		best.Cancelled = true
	}
	return best, all, nil
}

// SeedSequence derives n distinct exploration seeds from a base seed:
// base, base+1, ..., base+n-1, and none for n <= 0. A zero base defaults
// to 1 so the derived explorations do not all collapse onto the
// Options.Seed default.
func SeedSequence(base int64, n int) []int64 {
	if base == 0 {
		base = 1
	}
	seeds := make([]int64, max(n, 0))
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}
