package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"phonocmap/internal/obs"
)

// This file is the population-parallel evaluation engine:
// Context.EvaluateBatch shards a slice of candidate mappings across a
// bounded worker group, each worker scoring its shard by full evaluation
// on a problem of its own, and folds the scores back through the
// context's single evaluation ledger.
//
// Determinism contract (the reason the engine is usable inside seeded
// searches at all): EvaluateBatch produces bit-identical results at
// every worker count, including 1. Two properties carry it:
//
//  1. Scoring a mapping is Problem.Evaluate, a pure function of the
//     mapping: which worker's problem scores a candidate, and in what
//     order relative to its siblings, cannot change any score.
//  2. Accounting happens at a single commit point after all workers
//     join, replayed in candidate-index order: budget units, the
//     incumbent ledger, and the OnEvaluate/OnImprove callbacks observe
//     exactly the sequence a sequential ctx.Evaluate loop over the
//     same candidates would have produced.
//
// This is the same fixed-derivation + deterministic-reduction pattern
// the islands machinery (RunParallel) established, applied one level
// down: inside a single search's evaluation stream.

// defaultEvalWorkers is the process-wide worker count used by contexts
// that were not given an explicit count — the knob behind the
// -eval-workers flags of the CLI and phonocmap-serve. Zero means 1
// (sequential).
var defaultEvalWorkers atomic.Int32

// batchEvals counts mapping evaluations performed through EvaluateBatch
// process-wide, exposed by the service as phonocmap_batch_evals_total.
var batchEvals = obs.NewCounter()

// SetDefaultEvalWorkers sets the process-wide evaluation worker count
// used by contexts without an explicit SetEvalWorkers call. n <= 0
// resets to 1 (sequential), and n above math.MaxInt32 is held there.
// Results are bit-identical at every setting; only throughput changes.
func SetDefaultEvalWorkers(n int) {
	defaultEvalWorkers.Store(int32(max(1, min(n, math.MaxInt32))))
}

// DefaultEvalWorkers returns the process-wide evaluation worker count
// (at least 1).
func DefaultEvalWorkers() int {
	if n := defaultEvalWorkers.Load(); n > 1 {
		return int(n)
	}
	return 1
}

// BatchEvalsTotal returns the number of mapping evaluations performed
// through EvaluateBatch since process start.
func BatchEvalsTotal() int64 { return batchEvals.Value() }

// SetEvalWorkers sets this run's evaluation worker count, overriding
// the process default. n <= 0 restores "follow the process default".
// Worker count never changes results — only how many candidates of an
// EvaluateBatch call are scored concurrently.
func (c *Context) SetEvalWorkers(n int) {
	if n < 0 {
		n = 0
	}
	c.evalWorkers = n
}

// EvalWorkers returns the run's effective evaluation worker count.
func (c *Context) EvalWorkers() int {
	if c.evalWorkers > 0 {
		return c.evalWorkers
	}
	return DefaultEvalWorkers()
}

// Close releases and drops the swap session seated by
// StartSwaps/AttachSwaps and drops EvaluateBatch's per-worker problems,
// so their buffers are garbage even while the context is still held.
// Call it when the run is over and the context will not evaluate again;
// reading Best/Evals afterwards is fine.
func (c *Context) Close() {
	if c.sess != nil {
		c.sess.Release()
		c.sess = nil
	}
	c.batchProbs = nil
}

// EvaluateBatch scores a slice of candidate mappings, spending one
// budget unit per scored candidate, and returns their scores in
// candidate order plus the number n of candidates actually scored.
// n < len(cands) exactly when the budget ran out (or the run was
// cancelled): the first Remaining() candidates are scored and charged,
// the rest are neither — precisely where a sequential ctx.Evaluate
// loop over the same slice would have stopped.
//
// Candidates are sharded across EvalWorkers() workers and scored
// concurrently, each by Problem.Evaluate on a problem of its own: the
// first worker on the context's problem, which nothing else uses while
// EvaluateBatch runs, the others on clones made on first use. The
// worker count is capped at the number of candidates. Accounting
// (budget, incumbent, OnEvaluate/OnImprove) replays at a single commit
// point in candidate-index order, so results are bit-identical at every
// worker count. On an evaluation error the candidates before the first
// failing index are committed — again matching the sequential loop —
// and the error is returned.
//
// The returned slice is scratch owned by the context, valid until the
// next EvaluateBatch call.
func (c *Context) EvaluateBatch(cands []Mapping) ([]Score, int, error) {
	n := len(cands)
	if r := c.Remaining(); n > r {
		n = r
	}
	if c.Cancelled() {
		n = 0
	}
	if n == 0 {
		return nil, 0, nil
	}
	workers := c.EvalWorkers()
	if workers > n {
		workers = n
	}
	if cap(c.batchScores) < n {
		c.batchScores = make([]Score, n)
	}
	scores := c.batchScores[:n]

	// firstErr/firstErrIdx reduce worker failures deterministically: the
	// error at the lowest candidate index wins, whatever the schedule.
	var firstErr error
	firstErrIdx := n
	if workers == 1 {
		firstErrIdx, firstErr = scoreRange(c.prob, cands, scores, 0, n)
	} else {
		if len(c.batchProbs) == 0 {
			c.batchProbs = append(c.batchProbs, c.prob)
		}
		for len(c.batchProbs) < workers {
			c.batchProbs = append(c.batchProbs, c.prob.Clone())
		}
		// Contiguous shards: worker w scores [w*chunk, min((w+1)*chunk, n)).
		// Each worker stops at its first error; the reduction below picks
		// the globally lowest failing index, before which every candidate
		// was necessarily scored.
		chunk := (n + workers - 1) / workers
		errs := make([]error, workers)
		errIdx := make([]int, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, n)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				errIdx[w], errs[w] = scoreRange(c.batchProbs[w], cands, scores, lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil && errIdx[w] < firstErrIdx {
				firstErr, firstErrIdx = errs[w], errIdx[w]
			}
		}
	}

	// Single commit point: replay the ledger in candidate order.
	for i := 0; i < firstErrIdx; i++ {
		c.account(cands[i], scores[i])
	}
	batchEvals.Add(int64(firstErrIdx))
	if firstErr != nil {
		return nil, 0, firstErr
	}
	return scores, n, nil
}

// scoreRange scores cands[lo:hi] into scores on p and returns the index
// of the first candidate that failed with its error, or hi and nil.
func scoreRange(p *Problem, cands []Mapping, scores []Score, lo, hi int) (int, error) {
	for i := lo; i < hi; i++ {
		s, err := p.Evaluate(cands[i])
		if err != nil {
			return i, err
		}
		scores[i] = s
	}
	return hi, nil
}

// AutoEvalWorkers returns a sensible eval-worker count for "use the
// machine": GOMAXPROCS.
func AutoEvalWorkers() int { return runtime.GOMAXPROCS(0) }
