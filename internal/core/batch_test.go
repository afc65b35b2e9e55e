package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"phonocmap/internal/cg"
	"phonocmap/internal/topo"
)

// batchTestProblem builds a 12-task app on a 4x4 mesh (4 spare tiles),
// which scores from the network's path table.
func batchTestProblem(t *testing.T, obj Objective) *Problem {
	t.Helper()
	return randomProblem(t, obj, 4, 12, 40)
}

// kernelTestProblem builds a 28-task app on a 7x7 mesh (21 spare tiles),
// above the path table's tile cap, so it scores with the pair kernel.
func kernelTestProblem(t *testing.T, obj Objective) *Problem {
	t.Helper()
	prob := randomProblem(t, obj, 7, 28, 70)
	if tableFor(prob.Network()) != nil {
		t.Fatal("7x7 problem scores from a path table, want the pair kernel")
	}
	return prob
}

// randomProblem builds a seeded random connected app of the given size on
// a side x side Crux/XY mesh.
func randomProblem(t *testing.T, obj Objective, side, tasks, edges int) *Problem {
	t.Helper()
	app, err := cg.RandomConnected(rand.New(rand.NewSource(7)), tasks, edges)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := NewProblem(app, swapTestNet(t, false, side, side), obj)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// ledger records the observable evaluation sequence of a context: every
// OnEvaluate and OnImprove event in order.
type ledger struct {
	evalScores   []Score
	improveEvals []int
	improves     []Score
}

func (l *ledger) attach(ctx *Context) {
	ctx.OnEvaluate = func(_ Mapping, s Score) { l.evalScores = append(l.evalScores, s) }
	ctx.OnImprove = func(evals int, s Score) {
		l.improveEvals = append(l.improveEvals, evals)
		l.improves = append(l.improves, s)
	}
}

func (l *ledger) equal(o *ledger) bool {
	if len(l.evalScores) != len(o.evalScores) || len(l.improves) != len(o.improves) {
		return false
	}
	for i := range l.evalScores {
		if l.evalScores[i] != o.evalScores[i] {
			return false
		}
	}
	for i := range l.improves {
		if l.improves[i] != o.improves[i] || l.improveEvals[i] != o.improveEvals[i] {
			return false
		}
	}
	return true
}

// TestEvaluateBatchMatchesSequential: for every objective and worker
// count, on both engines, EvaluateBatch over a candidate list reproduces
// the exact observable behavior of a sequential ctx.Evaluate loop — same
// scores, same eval counts, same incumbent, same callback sequences —
// including when the budget truncates the batch.
func TestEvaluateBatchMatchesSequential(t *testing.T) {
	for _, obj := range []Objective{MinimizeLoss, MaximizeSNR, MinimizeWeightedLoss} {
		t.Run(obj.String()+"-table", func(t *testing.T) {
			testEvaluateBatchMatchesSequential(t, batchTestProblem(t, obj))
		})
		t.Run(obj.String()+"-kernel", func(t *testing.T) {
			testEvaluateBatchMatchesSequential(t, kernelTestProblem(t, obj))
		})
	}
}

func testEvaluateBatchMatchesSequential(t *testing.T, prob *Problem) {
	obj := prob.Objective()
	for _, budget := range []int{200, 37} { // 37: truncation mid-batch
		rng := rand.New(rand.NewSource(11))
		cands := make([]Mapping, 50)
		for i := range cands {
			m, err := RandomMapping(rng, prob.NumTasks(), prob.NumTiles())
			if err != nil {
				t.Fatal(err)
			}
			cands[i] = m
		}

		seqCtx, err := NewContext(prob.Clone(), rand.New(rand.NewSource(1)), budget)
		if err != nil {
			t.Fatal(err)
		}
		var seqLedger ledger
		seqLedger.attach(seqCtx)
		var seqScores []Score
		for _, m := range cands {
			s, ok, err := seqCtx.Evaluate(m)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			seqScores = append(seqScores, s)
		}

		for _, workers := range []int{1, 2, 4, 7} {
			ctx, err := NewContext(prob.Clone(), rand.New(rand.NewSource(1)), budget)
			if err != nil {
				t.Fatal(err)
			}
			ctx.SetEvalWorkers(workers)
			var l ledger
			l.attach(ctx)
			scores, n, err := ctx.EvaluateBatch(cands)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Close()

			if n != len(seqScores) {
				t.Fatalf("%s budget %d workers %d: batch scored %d, sequential %d", obj, budget, workers, n, len(seqScores))
			}
			for i := 0; i < n; i++ {
				if scores[i] != seqScores[i] {
					t.Fatalf("%s budget %d workers %d: score[%d] %+v != sequential %+v", obj, budget, workers, i, scores[i], seqScores[i])
				}
			}
			if ctx.Evals() != seqCtx.Evals() {
				t.Errorf("%s budget %d workers %d: evals %d != sequential %d", obj, budget, workers, ctx.Evals(), seqCtx.Evals())
			}
			gm, gs, gok := ctx.Best()
			wm, ws, wok := seqCtx.Best()
			if gok != wok || gs != ws || !gm.Equal(wm) {
				t.Errorf("%s budget %d workers %d: incumbent (%v,%+v,%t) != sequential (%v,%+v,%t)", obj, budget, workers, gm, gs, gok, wm, ws, wok)
			}
			if !l.equal(&seqLedger) {
				t.Errorf("%s budget %d workers %d: callback ledger diverged from sequential", obj, budget, workers)
			}
		}
	}
}

// TestEvaluateBatchEdgeCases pins the empty-batch, exhausted-budget and
// repeated-batch behaviors.
func TestEvaluateBatchEdgeCases(t *testing.T) {
	prob := batchTestProblem(t, MinimizeLoss)
	rng := rand.New(rand.NewSource(3))
	ctx, err := NewContext(prob, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	ctx.SetEvalWorkers(4)

	if scores, n, err := ctx.EvaluateBatch(nil); err != nil || n != 0 || scores != nil {
		t.Fatalf("empty batch: got (%v, %d, %v)", scores, n, err)
	}

	m := ctx.RandomMapping()
	batch := []Mapping{m, m, m, m, m, m}
	if _, n, err := ctx.EvaluateBatch(batch); err != nil || n != 6 {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	// 4 budget units remain: the next batch truncates.
	if _, n, err := ctx.EvaluateBatch(batch); err != nil || n != 4 {
		t.Fatalf("truncated batch: n=%d err=%v, want n=4", n, err)
	}
	if !ctx.Exhausted() {
		t.Fatal("budget should be exhausted")
	}
	if _, n, err := ctx.EvaluateBatch(batch); err != nil || n != 0 {
		t.Fatalf("exhausted batch: n=%d err=%v, want n=0", n, err)
	}
	if ctx.Evals() != 10 {
		t.Fatalf("evals = %d, want exactly the budget 10", ctx.Evals())
	}
}

// TestEvaluateBatchWorkerCountIsNotIdentity: distinct contexts may pick
// different worker counts mid-run; SetEvalWorkers(0) falls back to the
// process default, and the pool grows when the count rises.
func TestEvaluateBatchWorkerGrowth(t *testing.T) {
	prob := batchTestProblem(t, MinimizeLoss)
	ctx, err := NewContext(prob, rand.New(rand.NewSource(5)), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()

	mk := func(k int) []Mapping {
		out := make([]Mapping, k)
		for i := range out {
			out[i] = ctx.RandomMapping()
		}
		return out
	}
	ctx.SetEvalWorkers(1)
	if _, n, err := ctx.EvaluateBatch(mk(8)); err != nil || n != 8 {
		t.Fatalf("1-worker batch: n=%d err=%v", n, err)
	}
	ctx.SetEvalWorkers(6)
	if _, n, err := ctx.EvaluateBatch(mk(16)); err != nil || n != 16 {
		t.Fatalf("6-worker batch after growth: n=%d err=%v", n, err)
	}
	if got := ctx.EvalWorkers(); got != 6 {
		t.Fatalf("EvalWorkers = %d, want 6", got)
	}
	ctx.SetEvalWorkers(0)
	if got, want := ctx.EvalWorkers(), DefaultEvalWorkers(); got != want {
		t.Fatalf("EvalWorkers after reset = %d, want process default %d", got, want)
	}
}

// TestSwapSessionSiblingHammer exercises the documented sibling
// concurrency contract under the race detector, on both engines: many
// sessions of one Problem running EvaluateSwap/Commit/Revert/Reseat
// interleavings concurrently, each verifying every score against a
// private full-evaluation reference.
func TestSwapSessionSiblingHammer(t *testing.T) {
	t.Run("table-4x4", func(t *testing.T) { hammerSiblings(t, batchTestProblem(t, MaximizeSNR)) })
	t.Run("kernel-7x7", func(t *testing.T) { hammerSiblings(t, kernelTestProblem(t, MaximizeSNR)) })
}

func hammerSiblings(t *testing.T, prob *Problem) {
	const workers = 8
	const steps = 150
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errc <- hammerSession(prob, rand.New(rand.NewSource(int64(1000+w))), steps)
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}
}

// hammerSession drives one session of prob through steps swaps, commits,
// reverts and reseats, checking each score against a private clone.
func hammerSession(prob *Problem, rng *rand.Rand, steps int) error {
	ref := prob.Clone() // private full evaluator
	numTiles := prob.NumTiles()
	m, err := RandomMapping(rng, prob.NumTasks(), numTiles)
	if err != nil {
		return err
	}
	sess, err := prob.NewSwapSession(m)
	if err != nil {
		return err
	}
	defer sess.Release()
	for step := 0; step < steps; step++ {
		var got Score
		var what string
		if step%5 == 4 {
			fresh, err := RandomMapping(rng, prob.NumTasks(), numTiles)
			if err != nil {
				return err
			}
			if got, err = sess.Reseat(fresh); err != nil {
				return err
			}
			what = "reseat"
		} else {
			a := topo.TileID(rng.Intn(numTiles))
			b := topo.TileID(rng.Intn(numTiles))
			if got, err = sess.EvaluateSwap(a, b); err != nil {
				return err
			}
			what = fmt.Sprintf("swap(%d,%d)", a, b)
		}
		want, err := ref.Evaluate(sess.Mapping())
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("step %d: %s %+v != full %+v", step, what, got, want)
		}
		if !sess.Pending() {
			continue
		}
		if step%2 == 0 {
			sess.Commit()
			continue
		}
		if err := sess.Revert(); err != nil {
			return err
		}
		if want, err = ref.Evaluate(sess.Mapping()); err != nil {
			return err
		}
		if sess.Score() != want {
			return fmt.Errorf("step %d: revert %+v != full %+v", step, sess.Score(), want)
		}
	}
	return nil
}

// TestSwapEvalAllocationFree pins the allocation budget of the
// evaluation hot paths: steady-state EvaluateSwap+Revert, Reseat and
// EvaluateBatch at 1 worker must not allocate at all. This is the
// in-tree anchor of the CI -benchmem gate.
func TestSwapEvalAllocationFree(t *testing.T) {
	prob := batchTestProblem(t, MinimizeLoss)
	rng := rand.New(rand.NewSource(17))
	m, err := RandomMapping(rng, prob.NumTasks(), prob.NumTiles())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prob.NewSwapSession(m)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Release()
	numTiles := prob.NumTiles()

	// Warm up: let every lazily-grown scratch buffer reach steady state.
	for i := 0; i < 64; i++ {
		a := topo.TileID(rng.Intn(numTiles))
		b := topo.TileID(rng.Intn(numTiles))
		if _, err := sess.EvaluateSwap(a, b); err != nil {
			t.Fatal(err)
		}
		if err := sess.Revert(); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(200, func() {
		a := topo.TileID(rng.Intn(numTiles))
		b := topo.TileID(rng.Intn(numTiles))
		if _, err := sess.EvaluateSwap(a, b); err != nil {
			t.Fatal(err)
		}
		if err := sess.Revert(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("EvaluateSwap+Revert allocates %.1f objects per op, want 0", allocs)
	}

	// Reseat re-initialises the session's engine in its own buffers.
	next := sess.Mapping().Clone()
	allocs = testing.AllocsPerRun(200, func() {
		a := rng.Intn(len(next))
		b := rng.Intn(len(next))
		next[a], next[b] = next[b], next[a]
		if _, err := sess.Reseat(next); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("single-swap Reseat allocates %.1f objects per op, want 0", allocs)
	}

	// A batch at 1 worker scores on the context's own problem.
	for _, prob := range []*Problem{prob, kernelTestProblem(t, MinimizeLoss)} {
		ctx, err := NewContext(prob, rand.New(rand.NewSource(19)), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		ctx.SetEvalWorkers(1)
		cands := make([]Mapping, 8)
		for i := range cands {
			cands[i] = ctx.RandomMapping().Clone()
		}
		if _, _, err := ctx.EvaluateBatch(cands); err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(50, func() {
			if _, _, err := ctx.EvaluateBatch(cands); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%d-tile EvaluateBatch at 1 worker allocates %.1f objects per op, want 0", prob.NumTiles(), allocs)
		}
		ctx.Close()
	}
}

// TestEvalWorkerCountBoundaries pins worker counts at the ends of their
// range: 0 and -1 fall back (to 1 for the process default, to the
// process default for a context), 1 and math.MaxInt32 stand, a process
// default above math.MaxInt32 is held there, and a batch never starts
// more workers, or makes more per-worker problems, than it has
// candidates.
func TestEvalWorkerCountBoundaries(t *testing.T) {
	defer SetDefaultEvalWorkers(DefaultEvalWorkers())
	for _, tc := range []struct{ set, want int }{
		{0, 1}, {-1, 1}, {1, 1}, {math.MaxInt32, math.MaxInt32}, {math.MaxInt, math.MaxInt32},
	} {
		SetDefaultEvalWorkers(tc.set)
		if got := DefaultEvalWorkers(); got != tc.want {
			t.Errorf("SetDefaultEvalWorkers(%d): DefaultEvalWorkers() = %d, want %d", tc.set, got, tc.want)
		}
	}

	prob := batchTestProblem(t, MaximizeSNR)
	SetDefaultEvalWorkers(3)
	ctx, err := NewContext(prob, rand.New(rand.NewSource(29)), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	for _, tc := range []struct{ set, want int }{
		{0, 3}, {-1, 3}, {1, 1}, {math.MaxInt32, math.MaxInt32},
	} {
		ctx.SetEvalWorkers(tc.set)
		if got := ctx.EvalWorkers(); got != tc.want {
			t.Errorf("SetEvalWorkers(%d): EvalWorkers() = %d, want %d", tc.set, got, tc.want)
		}
	}

	// ctx is left at math.MaxInt32 workers: the batch is capped at 3.
	cands := []Mapping{ctx.RandomMapping().Clone(), ctx.RandomMapping().Clone(), ctx.RandomMapping().Clone()}
	scores, n, err := ctx.EvaluateBatch(cands)
	if err != nil || n != 3 {
		t.Fatalf("batch of 3 at MaxInt32 workers: n=%d err=%v", n, err)
	}
	for i, m := range cands {
		want, err := prob.Clone().Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		if scores[i] != want {
			t.Errorf("candidate %d: batch %+v != full %+v", i, scores[i], want)
		}
	}
	if len(ctx.batchProbs) > len(cands) {
		t.Errorf("batch of %d made %d per-worker problems", len(cands), len(ctx.batchProbs))
	}
}

// TestSwapSessionsCycleExact stands sessions up and releases them in a
// loop, each on a fresh engine: every one scores exactly like Evaluate.
func TestSwapSessionsCycleExact(t *testing.T) {
	prob := batchTestProblem(t, MinimizeLoss)
	rng := rand.New(rand.NewSource(23))
	m, err := RandomMapping(rng, prob.NumTasks(), prob.NumTiles())
	if err != nil {
		t.Fatal(err)
	}
	ref := prob.Clone()
	want, err := ref.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sess, err := prob.NewSwapSession(m)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Score() != want {
			t.Fatalf("cycle %d: session score %+v != full %+v", i, sess.Score(), want)
		}
		sess.Release()
	}
}
