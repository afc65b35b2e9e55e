package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"phonocmap/internal/topo"
)

// Searcher is a mapping optimization algorithm. Implementations draw all
// randomness from the context's RNG and spend evaluations through
// Context.Evaluate, which enforces the budget and tracks the incumbent;
// this is how the tool guarantees the paper's "same running time" fair
// comparison (equal evaluation budgets) across algorithms.
type Searcher interface {
	// Name identifies the algorithm, e.g. "rs", "ga", "rpbla".
	Name() string
	// Search runs until the context budget is exhausted (Evaluate
	// returns ok == false) or the algorithm converges. The incumbent is
	// read from the context afterwards, so Search needs no return value
	// beyond errors.
	Search(ctx *Context) error
}

// Context carries the problem, the randomness, the evaluation budget and
// the incumbent (best mapping found so far) through one optimization run.
type Context struct {
	prob      *Problem
	rng       *rand.Rand
	budget    int
	evals     int
	best      Mapping
	bestScore Score
	hasBest   bool
	// cancel, when non-nil, aborts the run early: once it is done,
	// Evaluate refuses further work exactly as if the budget had run out,
	// so every Searcher winds down through its normal exhaustion path.
	cancel context.Context
	// OnImprove, when non-nil, is called with the evaluation count and
	// new incumbent score each time the incumbent improves — used for
	// convergence traces.
	OnImprove func(evals int, s Score)
	// OnEvaluate, when non-nil, observes every evaluation (mapping and
	// score) regardless of improvement — used by multi-objective
	// archives such as ParetoFront. The mapping is only valid during the
	// callback; clone it to retain it.
	OnEvaluate func(m Mapping, s Score)
	// sess is the incremental swap session of the run, seated by
	// StartSwaps/AttachSwaps and driven by EvaluateSwap; nil until a
	// searcher opts into the incremental path.
	sess *SwapSession
	// evalWorkers, when > 0, overrides the process-wide default worker
	// count for EvaluateBatch (see SetEvalWorkers in batch.go).
	evalWorkers int
	// batchPool holds the per-worker sessions of EvaluateBatch, created
	// lazily on the first batch and released by Close.
	batchPool *SwapSessionPool
	// batchScores is EvaluateBatch's reusable result slab.
	batchScores []Score
	// draw is RandomMapping's buffer, one slot per tile.
	draw Mapping
}

// NewContext prepares an optimization run with the given evaluation
// budget. Budgets must be positive.
func NewContext(prob *Problem, rng *rand.Rand, budget int) (*Context, error) {
	if prob == nil {
		return nil, fmt.Errorf("core: nil problem")
	}
	if rng == nil {
		return nil, fmt.Errorf("core: nil rng")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("core: budget must be positive, got %d", budget)
	}
	return &Context{prob: prob, rng: rng, budget: budget}, nil
}

// Problem returns the problem under optimization.
func (c *Context) Problem() *Problem { return c.prob }

// Rng returns the run's random source.
func (c *Context) Rng() *rand.Rand { return c.rng }

// Budget returns the total evaluation budget.
func (c *Context) Budget() int { return c.budget }

// SetCancel attaches a cancellation context to the run. A nil ctx leaves
// the run uncancellable (the default).
func (c *Context) SetCancel(ctx context.Context) { c.cancel = ctx }

// Cancelled reports whether the run's cancellation context is done.
func (c *Context) Cancelled() bool {
	return c.cancel != nil && c.cancel.Err() != nil
}

// Evals returns the number of evaluations spent so far.
func (c *Context) Evals() int { return c.evals }

// Remaining returns the unspent budget.
func (c *Context) Remaining() int { return c.budget - c.evals }

// Exhausted reports whether the run is over: the budget is spent or the
// run has been cancelled.
func (c *Context) Exhausted() bool { return c.evals >= c.budget || c.Cancelled() }

// Evaluate scores a mapping, spending one unit of budget. ok is false —
// and the mapping is NOT evaluated — once the budget is exhausted or the
// run is cancelled. Invalid mappings surface as errors; algorithms are
// expected to produce only valid ones, so errors indicate bugs rather
// than search states.
func (c *Context) Evaluate(m Mapping) (Score, bool, error) {
	if c.Exhausted() {
		return Score{}, false, nil
	}
	s, err := c.prob.Evaluate(m)
	if err != nil {
		return Score{}, false, err
	}
	c.account(m, s)
	return s, true, nil
}

// account spends one budget unit on an already-computed evaluation:
// callbacks fire and the incumbent updates exactly as in Evaluate, so
// the full and incremental paths share one ledger.
func (c *Context) account(m Mapping, s Score) {
	c.evals++
	if c.OnEvaluate != nil {
		c.OnEvaluate(m, s)
	}
	if !c.hasBest || s.Better(c.bestScore) {
		// The incumbent slab is reused across improvements (Best clones on
		// the way out), so a long run allocates for its best mapping once.
		c.best = append(c.best[:0], m...)
		c.bestScore = s
		c.hasBest = true
		if c.OnImprove != nil {
			c.OnImprove(c.evals, s)
		}
	}
}

// StartSwaps evaluates m through the incremental engine, seats the run's
// swap session on it and spends one budget unit — the incremental
// equivalent of Evaluate for the starting point of a swap searcher. The
// returned Score is bit-for-bit what Evaluate(m) would have produced.
func (c *Context) StartSwaps(m Mapping) (Score, bool, error) {
	if c.Exhausted() {
		return Score{}, false, nil
	}
	s, err := c.seatSwaps(m)
	if err != nil {
		return Score{}, false, err
	}
	c.account(m, s)
	return s, true, nil
}

// AttachSwaps seats the swap session on a mapping whose evaluation was
// already paid for (e.g. the incumbent, or the survivor of a calibration
// phase) without spending budget. Seating costs up to one evaluation's
// worth of CPU but keeps the evaluation ledger untouched.
func (c *Context) AttachSwaps(m Mapping) error {
	_, err := c.seatSwaps(m)
	return err
}

// seatSwaps places the session on m, reusing the existing session's
// buffers via Reseat when one is already seated (scores are bit-for-bit
// identical either way; Reseat just skips the re-allocation and the
// unchanged communications).
func (c *Context) seatSwaps(m Mapping) (Score, error) {
	if c.sess != nil && !c.sess.Pending() {
		return c.sess.Reseat(m)
	}
	sess, err := c.prob.NewSwapSession(m)
	if err != nil {
		return Score{}, err
	}
	c.sess = sess
	return sess.Score(), nil
}

// EvaluateSwap tentatively swaps the contents of two tiles of the
// session's mapping and scores the result, spending one budget unit like
// Evaluate but touching only the communications the swap changes. The
// caller must resolve the move with CommitSwap or RevertSwap before the
// next evaluation. ok is false — and the swap is NOT applied — once the
// budget is exhausted or the run cancelled.
func (c *Context) EvaluateSwap(a, b topo.TileID) (Score, bool, error) {
	if c.sess == nil {
		return Score{}, false, fmt.Errorf("core: EvaluateSwap without a session (call StartSwaps or AttachSwaps)")
	}
	if c.Exhausted() {
		return Score{}, false, nil
	}
	s, err := c.sess.EvaluateSwap(a, b)
	if err != nil {
		return Score{}, false, err
	}
	c.account(c.sess.Mapping(), s)
	return s, true, nil
}

// CommitSwap keeps the tentative swap of the session.
func (c *Context) CommitSwap() {
	if c.sess != nil {
		c.sess.Commit()
	}
}

// RevertSwap undoes the tentative swap of the session, restoring the
// exact previous state.
func (c *Context) RevertSwap() error {
	if c.sess == nil {
		return fmt.Errorf("core: RevertSwap without a session")
	}
	return c.sess.Revert()
}

// ApplySwap commits a swap whose score is already known from a previous
// EvaluateSwap/RevertSwap round, without spending budget — the
// incremental analogue of mutating a working mapping between rounds
// (tabu and R-PBLA apply the winner of a ranked round this way).
func (c *Context) ApplySwap(a, b topo.TileID) error {
	if c.sess == nil {
		return fmt.Errorf("core: ApplySwap without a session")
	}
	if _, err := c.sess.EvaluateSwap(a, b); err != nil {
		return err
	}
	c.sess.Commit()
	return nil
}

// SwapSession exposes the seated session (nil before StartSwaps or
// AttachSwaps) for searchers that need its occupancy view.
func (c *Context) SwapSession() *SwapSession { return c.sess }

// WithBudgetSlice runs f under a temporarily reduced budget: at most n
// further evaluations are allowed inside f, after which the original
// budget is restored (already-spent evaluations still count). It lets
// composite searchers run sub-algorithms on budget slices while sharing
// the incumbent and the evaluation ledger.
func (c *Context) WithBudgetSlice(n int, f func(*Context) error) error {
	if n < 0 {
		return fmt.Errorf("core: negative budget slice %d", n)
	}
	old := c.budget
	if limit := c.evals + n; limit < old {
		c.budget = limit
	}
	err := f(c)
	c.budget = old
	return err
}

// BestScore returns the incumbent score without cloning the mapping — a
// cheap read for progress reporting. ok is false when nothing has been
// evaluated yet.
func (c *Context) BestScore() (Score, bool) { return c.bestScore, c.hasBest }

// Best returns the incumbent mapping and score. ok is false when nothing
// has been evaluated yet.
func (c *Context) Best() (Mapping, Score, bool) {
	if !c.hasBest {
		return nil, Score{}, false
	}
	return c.best.Clone(), c.bestScore, true
}

// RandomMapping draws a uniform mapping for this problem, consuming the
// RNG exactly like the package-level RandomMapping. The mapping lives in
// the context's buffer and is overwritten by the next call: Clone it to
// retain it. Evaluate, StartSwaps and AttachSwaps copy what they keep.
func (c *Context) RandomMapping() Mapping {
	if c.draw == nil {
		c.draw = make(Mapping, c.prob.NumTiles())
	}
	DrawPerm(c.rng, c.draw)
	n := c.prob.NumTasks()
	return c.draw[:n:n]
}

// InfCost is a sentinel cost worse than any real evaluation.
func InfCost() Score { return Score{Cost: math.Inf(1)} }
