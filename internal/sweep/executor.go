package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
)

// Runner executes one cell under the sweep's context, returning the
// optimization run and the cell's analysis report (nil when the cell
// requests no analyses). A cancelled runner should return the best
// partial result it has (with core.RunResult.Cancelled set) or an error
// when nothing was evaluated. Runners that need finer-grained
// cancellation derive their own context per cell (the service's job
// runner does, through job contexts).
type Runner func(ctx context.Context, c Cell) (core.RunResult, *scenario.Report, error)

// Result is the outcome of one executed cell.
type Result struct {
	// Index is the cell's position in the expanded grid.
	Index int
	Cell  Cell
	Run   core.RunResult
	// Report is the cell's post-optimization analysis report (nil when
	// the cell requested no analyses, or on failure).
	Report *scenario.Report
	// Err is non-nil when the cell failed (or was cancelled before any
	// evaluation); Run is then zero-valued.
	Err error
}

// Options configures a sweep execution.
type Options struct {
	// Workers bounds concurrently running cells; <= 0 means GOMAXPROCS.
	Workers int
	// Context, when non-nil, cancels the whole sweep: in-flight cells
	// wind down through their per-cell contexts, unstarted cells are
	// skipped (reported as cancelled).
	Context context.Context
	// OnCellDone, when non-nil, is called as each cell settles — live
	// per-cell progress for CLIs and services. Calls may arrive
	// concurrently from all workers.
	OnCellDone func(Result)
}

// Run executes every cell through the runner on ForEach's bounded
// worker pool and returns the results in cell order. Cell failures are
// recorded in their Result, not returned: a 500-cell sweep with one
// broken cell still yields 499 results; cells skipped because the sweep
// context was cancelled report the cancellation as their Err. The
// returned error is only non-nil for invalid arguments.
func Run(cells []Cell, run Runner, opts Options) ([]Result, error) {
	if run == nil {
		return nil, fmt.Errorf("sweep: nil runner")
	}
	parent := opts.Context
	if parent == nil {
		parent = context.Background()
	}
	results := make([]Result, len(cells))
	done := make([]bool, len(cells))
	err := ForEach(parent, len(cells), opts.Workers, func(ctx context.Context, i int) error {
		res := Result{Index: i, Cell: cells[i]}
		res.Run, res.Report, res.Err = run(ctx, cells[i])
		results[i] = res
		done[i] = true
		if opts.OnCellDone != nil {
			opts.OnCellDone(res)
		}
		return nil // cell failures stay in their Result
	})
	// The only error ForEach can surface here is the parent context's
	// cancellation (the callback never returns one); the skipped cells
	// record it below.
	if err != nil && !errors.Is(err, parent.Err()) {
		return nil, err
	}
	for i := range results {
		if done[i] {
			continue
		}
		cause := parent.Err()
		if cause == nil {
			cause = context.Canceled
		}
		res := Result{Index: i, Cell: cells[i], Err: cause}
		results[i] = res
		if opts.OnCellDone != nil {
			opts.OnCellDone(res)
		}
	}
	return results, nil
}

// ForEach runs fn(i) for i in [0, n) on a pool of `workers` goroutines
// (<= 0 means GOMAXPROCS; never more than n), stopping early on the
// first error or context cancellation (in-flight items finish; unfed
// items are skipped). It is the sharding primitive under Run — and
// exported for drivers whose unit of work is not a grid cell, e.g. the
// Figure 3 per-application distribution study. The pool is fixed-size:
// feeding a million items costs a million channel sends, not a million
// parked goroutines.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if fn == nil {
		return fmt.Errorf("sweep: nil function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if runCtx.Err() != nil {
					continue // drain so the feeder never blocks
				}
				if err := fn(runCtx, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if runCtx.Err() != nil {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// RunCell is the unshared reference Runner: it compiles the cell, with a
// network of its own, through the scenario compiler and runs it through
// the scenario executor — the same seed derivation and cancellation
// policy as a service job, so local and service sweeps produce
// bit-identical results for equal cells. A cancelled cell keeps its
// best-so-far run (Run.Cancelled set) without a report. Local front ends
// run cells through NewCellRunner, which shares networks; tests compare
// it against RunCell.
func RunCell(ctx context.Context, c Cell) (core.RunResult, *scenario.Report, error) {
	comp, err := c.Compile()
	if err != nil {
		return core.RunResult{}, nil, err
	}
	return execute(ctx, comp)
}

// NewCellRunner returns RunCell with every cell compiled through nets,
// so cells on equal architectures share one network and its path table
// while the cache keeps them, and results stay bit-identical to
// RunCell's. A runner.Local passes the one cache it keeps across its
// sweeps; a nil cache builds a network per cell, as RunCell does.
func NewCellRunner(nets *scenario.NetworkCache) Runner {
	return func(ctx context.Context, c Cell) (core.RunResult, *scenario.Report, error) {
		comp, err := nets.Compile(c.Scenario())
		if err != nil {
			return core.RunResult{}, nil, err
		}
		return execute(ctx, comp)
	}
}

// execute runs a compiled cell through the scenario executor.
func execute(ctx context.Context, comp *scenario.Compiled) (core.RunResult, *scenario.Report, error) {
	out, err := comp.Execute(ctx, nil)
	if err != nil {
		return core.RunResult{}, nil, err
	}
	return out.Run, out.Report, nil
}
