package search

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"phonocmap/internal/core"
	"phonocmap/internal/topo"
)

// This file proves the evaluation-path rewrites of the searchers changed
// no search behavior. refSA, refTabu and refRPBLA are verbatim copies of
// the searchers' pre-incremental control flow — every candidate scored
// through ctx.Evaluate, i.e. a full from-scratch evaluation. refGA and
// refMemetic mirror the batched searchers' control flow (breed or draft
// the whole round first, then score) but evaluate every candidate
// sequentially through ctx.Evaluate with allocating helpers — the
// reference ledger Context.EvaluateBatch must reproduce. The tests
// assert that the live searchers reproduce the references' RunResult
// (Mapping, Score, Evals) exactly under equal seeds, and
// TestBatchedSearchersWorkerCountInvariant extends that to every eval
// worker count.
//
// Both sides run against the same Evaluator, so what is proven is
// strategy equivalence: identical candidate sequences, identical RNG
// consumption, identical budget accounting, identical incumbents. (The
// evaluator's own arithmetic was deliberately re-derived in the same PR
// — factorized linear factors plus fixed-point noise quantization — a
// documented sub-physical rounding change shared by both paths.)

// slots is the tile-centric view of a mapping the reference searchers
// mutate: slots[tile] is the task hosted on that tile, or -1. It makes
// swap-neighborhood enumeration and task moves O(1).
type slots struct {
	taskOf  []int // by tile
	mapping core.Mapping
}

func newSlots(m core.Mapping, numTiles int) *slots {
	s := &slots{
		taskOf:  make([]int, numTiles),
		mapping: m.Clone(),
	}
	for t := range s.taskOf {
		s.taskOf[t] = -1
	}
	for task, tile := range m {
		s.taskOf[tile] = task
	}
	return s
}

// reset re-seats the slot view on a new mapping.
func (s *slots) reset(m core.Mapping) {
	for t := range s.taskOf {
		s.taskOf[t] = -1
	}
	copy(s.mapping, m)
	for task, tile := range m {
		s.taskOf[tile] = task
	}
}

// taskAt reports the task on a tile (-1 when free) — the admittedMoves
// accessor of a slots view.
func (s *slots) taskAt(t topo.TileID) int { return s.taskOf[t] }

// swapTiles exchanges the contents of two tiles (tasks or emptiness),
// keeping the mapping in sync. Swapping two empty tiles is a no-op.
func (s *slots) swapTiles(a, b topo.TileID) {
	ta, tb := s.taskOf[a], s.taskOf[b]
	s.taskOf[a], s.taskOf[b] = tb, ta
	if ta >= 0 {
		s.mapping[ta] = b
	}
	if tb >= 0 {
		s.mapping[tb] = a
	}
}

// refRankMoves is the pre-refactor rankMoves: every admitted move
// evaluated by mutating the slot view and fully evaluating the mapping.
func refRankMoves(ctx *core.Context, s *slots, moves []move, buf []rankedMove) ([]rankedMove, bool, error) {
	buf = buf[:0]
	for _, mv := range moves {
		s.swapTiles(mv.a, mv.b)
		score, ok, err := ctx.Evaluate(s.mapping)
		s.swapTiles(mv.a, mv.b) // undo
		if err != nil {
			return buf, false, err
		}
		if !ok {
			return buf, false, nil
		}
		buf = append(buf, rankedMove{m: mv, score: score})
	}
	sort.SliceStable(buf, func(i, j int) bool { return buf[i].score.Better(buf[j].score) })
	return buf, true, nil
}

type refSA struct{ cfg *SA }

func (s refSA) Name() string { return "ref-sa" }

func (s refSA) Search(ctx *core.Context) error {
	if err := s.cfg.validate(); err != nil {
		return err
	}
	rng := ctx.Rng()
	numTiles := ctx.Problem().NumTiles()

	var costs []float64
	var cur core.Mapping
	var curScore core.Score
	for i := 0; i < s.cfg.CalibrationSamples; i++ {
		m := ctx.RandomMapping()
		sc, ok, err := ctx.Evaluate(m)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if math.IsInf(sc.Cost, 0) {
			continue
		}
		costs = append(costs, sc.Cost)
		if cur == nil || sc.Better(curScore) {
			cur, curScore = m.Clone(), sc
		}
	}
	if cur == nil {
		cur = ctx.RandomMapping()
		sc, ok, err := ctx.Evaluate(cur)
		if err != nil || !ok {
			return err
		}
		curScore = sc
	}
	spread := costSpread(costs)
	if spread <= 0 {
		spread = 1
	}
	t0 := -spread / math.Log(s.cfg.InitialAcceptance)
	alpha := math.Pow(s.cfg.FinalTempFactor, 1/math.Max(1, float64(ctx.Remaining())))

	sl := newSlots(cur, numTiles)
	temp := t0
	for !ctx.Exhausted() {
		a := topo.TileID(rng.Intn(numTiles))
		b := topo.TileID(rng.Intn(numTiles))
		if a == b || (sl.taskOf[a] < 0 && sl.taskOf[b] < 0) {
			continue
		}
		sl.swapTiles(a, b)
		sc, ok, err := ctx.Evaluate(sl.mapping)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		accept := sc.Better(curScore)
		if !accept {
			delta := sc.Cost - curScore.Cost
			if !math.IsInf(delta, 0) && rng.Float64() < math.Exp(-delta/temp) {
				accept = true
			}
		}
		if accept {
			curScore = sc
		} else {
			sl.swapTiles(a, b)
		}
		temp *= alpha
	}
	return nil
}

type refTabu struct{ cfg *Tabu }

func (t refTabu) Name() string { return "ref-tabu" }

func (t refTabu) Search(ctx *core.Context) error {
	tenure := t.cfg.Tenure
	if tenure == 0 {
		tenure = ctx.Problem().NumTasks()
	}
	numTiles := ctx.Problem().NumTiles()

	cur := ctx.RandomMapping()
	if _, ok, err := ctx.Evaluate(cur); err != nil || !ok {
		return err
	}
	_, bestScore, _ := ctx.Best()
	sl := newSlots(cur, numTiles)
	moves := admittedMoves(sl.taskAt, len(sl.taskOf))
	expires := make(map[move]int, len(moves))
	var ranked []rankedMove

	for iter := 0; !ctx.Exhausted(); iter++ {
		var err error
		var full bool
		ranked, full, err = refRankMoves(ctx, sl, moves, ranked)
		if err != nil {
			return err
		}
		if len(ranked) == 0 {
			return nil
		}
		applied := false
		for _, rm := range ranked {
			tabu := expires[rm.m] > iter
			aspire := rm.score.Better(bestScore)
			if tabu && !aspire {
				continue
			}
			sl.swapTiles(rm.m.a, rm.m.b)
			expires[rm.m] = iter + tenure
			if rm.score.Better(bestScore) {
				bestScore = rm.score
			}
			applied = true
			break
		}
		if !applied {
			for k := range expires {
				delete(expires, k)
			}
		}
		if !full {
			return nil
		}
	}
	return nil
}

type refRPBLA struct{ cfg *RPBLA }

func (r refRPBLA) Name() string { return "ref-rpbla" }

func (r refRPBLA) Search(ctx *core.Context) error {
	numTiles := ctx.Problem().NumTiles()
	var ranked []rankedMove

	for !ctx.Exhausted() {
		cur := ctx.RandomMapping()
		curScore, ok, err := ctx.Evaluate(cur)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		sl := newSlots(cur, numTiles)
		moves := admittedMoves(sl.taskAt, len(sl.taskOf))

		for round := 0; r.cfg.MaxRounds == 0 || round < r.cfg.MaxRounds; round++ {
			var full bool
			ranked, full, err = refRankMoves(ctx, sl, moves, ranked)
			if err != nil {
				return err
			}
			if len(ranked) == 0 {
				return nil
			}
			best := ranked[0]
			if !best.score.Better(curScore) {
				break
			}
			sl.swapTiles(best.m.a, best.m.b)
			curScore = best.score
			if !full {
				return nil
			}
		}
	}
	return nil
}

// clonePerm and pmx are the allocating reference forms the production
// GA used before the slab rewrite; refGA (and gaCloneReeval in
// search_test.go) keep using them so the references stay independent of
// the production scratch-buffer code they are checking.
func clonePerm(p []topo.TileID) []topo.TileID {
	c := make([]topo.TileID, len(p))
	copy(c, p)
	return c
}

// pmx is map-based partially mapped crossover: the reference form of
// pmxInto, with identical RNG draws and output (pinned by
// TestPMXIntoMatchesReference).
func pmx(rng *rand.Rand, a, b []topo.TileID) []topo.TileID {
	n := len(a)
	child := make([]topo.TileID, n)
	lo := rng.Intn(n)
	hi := rng.Intn(n)
	if lo > hi {
		lo, hi = hi, lo
	}
	inSegment := make(map[topo.TileID]bool, hi-lo+1)
	for i := lo; i <= hi; i++ {
		child[i] = a[i]
		inSegment[a[i]] = true
	}
	posInA := make(map[topo.TileID]int, n)
	for i, v := range a {
		posInA[v] = i
	}
	for i := 0; i < n; i++ {
		if i >= lo && i <= hi {
			continue
		}
		v := b[i]
		for inSegment[v] {
			v = b[posInA[v]]
		}
		child[i] = v
	}
	return child
}

type refGA struct{ cfg *GA }

func (g refGA) Name() string { return "ref-ga" }

// refGA breeds exactly like the live GA — whole generation first, same
// RNG draws — but scores every pending child sequentially through
// ctx.Evaluate, in breeding order. This is the ledger EvaluateBatch
// must reproduce: same scores, same eval counts, same incumbent
// sequence, same truncation point on budget exhaustion.
func (g refGA) Search(ctx *core.Context) error {
	if err := g.cfg.validate(); err != nil {
		return err
	}
	rng := ctx.Rng()
	numTasks := ctx.Problem().NumTasks()
	numTiles := ctx.Problem().NumTiles()

	pop := make([]individual, g.cfg.PopSize)
	for i := range pop {
		perm := make([]topo.TileID, numTiles)
		for j, v := range rng.Perm(numTiles) {
			perm[j] = topo.TileID(v)
		}
		pop[i] = individual{perm: perm}
	}
	// evaluatePending is the sequential counterpart of the live GA's
	// batched flush.
	evaluatePending := func(gen []individual) (bool, error) {
		for i := range gen {
			if gen[i].valid {
				continue
			}
			s, ok, err := ctx.Evaluate(core.Mapping(gen[i].perm[:numTasks]))
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
			gen[i].score, gen[i].valid = s, true
		}
		return true, nil
	}
	if full, err := evaluatePending(pop); err != nil {
		return err
	} else if !full {
		return nil
	}

	tournament := func() *individual {
		best := &pop[rng.Intn(len(pop))]
		for i := 1; i < g.cfg.TournamentK; i++ {
			c := &pop[rng.Intn(len(pop))]
			if c.score.Better(best.score) {
				best = c
			}
		}
		return best
	}

	next := make([]individual, 0, g.cfg.PopSize)
	for !ctx.Exhausted() {
		spentBefore := ctx.Evals()
		next = next[:0]
		sortByScore(pop)
		for i := 0; i < g.cfg.Elite; i++ {
			elite := individual{perm: clonePerm(pop[i].perm), score: pop[i].score, valid: true}
			next = append(next, elite)
		}
		for len(next) < g.cfg.PopSize {
			p1, p2 := tournament(), tournament()
			var child individual
			if rng.Float64() < g.cfg.CrossoverRate {
				child = individual{perm: pmx(rng, p1.perm, p2.perm)}
			} else {
				// Clone children inherit the parent's cached score (the GA
				// budget-accounting fix); mutation flips valid below.
				child = individual{perm: clonePerm(p1.perm), score: p1.score, valid: true}
			}
			for rng.Float64() < g.cfg.MutationRate {
				i, j := rng.Intn(numTiles), rng.Intn(numTiles)
				child.perm[i], child.perm[j] = child.perm[j], child.perm[i]
				child.valid = false
			}
			next = append(next, child)
		}
		if full, err := evaluatePending(next); err != nil {
			return err
		} else if !full {
			return nil
		}
		pop, next = next, pop
		if ctx.Evals() == spentBefore && g.cfg.CrossoverRate == 0 && g.cfg.MutationRate == 0 {
			return nil
		}
	}
	return nil
}

type refMemetic struct{ cfg *Memetic }

func (m refMemetic) Name() string { return "ref-memetic" }

// refMemetic drafts each refinement leg's swap candidates exactly like
// the live memetic — all RefineMoves draws against the incumbent base —
// then scores them sequentially through ctx.Evaluate.
func (m refMemetic) Search(ctx *core.Context) error {
	if err := m.cfg.GA.validate(); err != nil {
		return err
	}
	numTiles := ctx.Problem().NumTiles()
	rng := ctx.Rng()
	ga := refGA{cfg: m.cfg.GA}

	for !ctx.Exhausted() {
		burst := 4 * m.cfg.GA.PopSize
		if remaining := ctx.Remaining(); burst > remaining {
			burst = remaining
		}
		if err := ctx.WithBudgetSlice(burst, ga.Search); err != nil {
			return err
		}
		best, _, ok := ctx.Best()
		if !ok {
			return nil
		}
		sl := newSlots(best, numTiles)
		var cands []core.Mapping
		for i := 0; i < m.cfg.RefineMoves; i++ {
			a := rng.Intn(numTiles)
			b := rng.Intn(numTiles)
			if a == b || (sl.taskOf[a] < 0 && sl.taskOf[b] < 0) {
				continue
			}
			cand := best.Clone()
			if ta := sl.taskOf[a]; ta >= 0 {
				cand[ta] = topo.TileID(b)
			}
			if tb := sl.taskOf[b]; tb >= 0 {
				cand[tb] = topo.TileID(a)
			}
			cands = append(cands, cand)
		}
		for _, cand := range cands {
			if _, evaluated, err := ctx.Evaluate(cand); err != nil {
				return err
			} else if !evaluated {
				return nil
			}
		}
	}
	return nil
}

// runSeeded executes one searcher on a fresh clone of the problem under
// the standard Exploration seed derivation, at the process-wide eval
// worker count.
func runSeeded(t *testing.T, prob *core.Problem, s core.Searcher, budget int, seed int64) core.RunResult {
	t.Helper()
	ex, err := core.NewExploration(prob.Clone(), core.Options{Budget: budget, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runSeededWorkers is runSeeded with the process-wide eval worker count
// set to workers for the run and restored afterwards.
func runSeededWorkers(t *testing.T, prob *core.Problem, s core.Searcher, budget int, seed int64, workers int) core.RunResult {
	t.Helper()
	defer core.SetDefaultEvalWorkers(core.DefaultEvalWorkers())
	core.SetDefaultEvalWorkers(workers)
	return runSeeded(t, prob, s, budget, seed)
}

// TestIncrementalSearchersMatchReference: under equal seeds, the
// incremental-path searchers reproduce the pre-refactor full-evaluation
// searchers bit for bit — same Mapping, same Score, same Evals.
func TestIncrementalSearchersMatchReference(t *testing.T) {
	pairs := []struct {
		name string
		live core.Searcher
		ref  core.Searcher
	}{
		{"sa", NewSA(), refSA{cfg: NewSA()}},
		{"tabu", NewTabu(), refTabu{cfg: NewTabu()}},
		{"rpbla", NewRPBLA(), refRPBLA{cfg: NewRPBLA()}},
		{"ga", NewGA(), refGA{cfg: NewGA()}},
		{"memetic", NewMemetic(), refMemetic{cfg: NewMemetic()}},
	}
	for _, obj := range []core.Objective{core.MinimizeLoss, core.MaximizeSNR, core.MinimizeWeightedLoss} {
		prob := problem(t, "VOPD", 4, 4, obj)
		for _, p := range pairs {
			for _, seed := range []int64{1, 7} {
				got := runSeeded(t, prob, p.live, 600, seed)
				want := runSeeded(t, prob, p.ref, 600, seed)
				if !got.Mapping.Equal(want.Mapping) {
					t.Errorf("%s/%s seed %d: mapping %v != reference %v", p.name, obj, seed, got.Mapping, want.Mapping)
				}
				if got.Score != want.Score {
					t.Errorf("%s/%s seed %d: score %+v != reference %+v", p.name, obj, seed, got.Score, want.Score)
				}
				if got.Evals != want.Evals {
					t.Errorf("%s/%s seed %d: evals %d != reference %d", p.name, obj, seed, got.Evals, want.Evals)
				}
			}
		}
	}
}

// TestBatchedSearchersWorkerCountInvariant is the parallel differential
// proof: the batched searchers produce bit-identical results (Mapping,
// Score, Evals) at every eval worker count, across all objectives —
// worker count is a throughput knob, never a search parameter. The
// sequential (1-worker) run doubles as the anchor back to the
// sequential references via TestIncrementalSearchersMatchReference.
func TestBatchedSearchersWorkerCountInvariant(t *testing.T) {
	searchers := []struct {
		name string
		make func() core.Searcher
	}{
		{"ga", func() core.Searcher { return NewGA() }},
		{"memetic", func() core.Searcher { return NewMemetic() }},
	}
	for _, obj := range []core.Objective{core.MinimizeLoss, core.MaximizeSNR, core.MinimizeWeightedLoss} {
		prob := problem(t, "VOPD", 4, 4, obj)
		for _, s := range searchers {
			for _, seed := range []int64{1, 7} {
				base := runSeededWorkers(t, prob, s.make(), 600, seed, 1)
				for _, workers := range []int{2, 4, 7} {
					got := runSeededWorkers(t, prob, s.make(), 600, seed, workers)
					if !got.Mapping.Equal(base.Mapping) {
						t.Errorf("%s/%s seed %d workers %d: mapping %v != sequential %v",
							s.name, obj, seed, workers, got.Mapping, base.Mapping)
					}
					if got.Score != base.Score {
						t.Errorf("%s/%s seed %d workers %d: score %+v != sequential %+v",
							s.name, obj, seed, workers, got.Score, base.Score)
					}
					if got.Evals != base.Evals {
						t.Errorf("%s/%s seed %d workers %d: evals %d != sequential %d",
							s.name, obj, seed, workers, got.Evals, base.Evals)
					}
				}
			}
		}
	}
}

// TestPMXIntoMatchesReference: the slab-writing pmxInto draws the same
// RNG values and produces the same child as the allocating map-based
// reference, across sizes and seeds.
func TestPMXIntoMatchesReference(t *testing.T) {
	for _, n := range []int{2, 5, 16, 64} {
		for seed := int64(1); seed <= 20; seed++ {
			gen := rand.New(rand.NewSource(seed * 31))
			a := make([]topo.TileID, n)
			b := make([]topo.TileID, n)
			for i, v := range gen.Perm(n) {
				a[i] = topo.TileID(v)
			}
			for i, v := range gen.Perm(n) {
				b[i] = topo.TileID(v)
			}
			rngRef := rand.New(rand.NewSource(seed))
			rngLive := rand.New(rand.NewSource(seed))
			want := pmx(rngRef, a, b)
			got := make([]topo.TileID, n)
			inSegment := make([]bool, n)
			posInA := make([]int, n)
			pmxInto(rngLive, a, b, got, inSegment, posInA)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d seed=%d: pmxInto %v != pmx %v (parents %v, %v)", n, seed, got, want, a, b)
				}
			}
			for i := range inSegment {
				if inSegment[i] {
					t.Fatalf("n=%d seed=%d: pmxInto left inSegment[%d] set", n, seed, i)
				}
			}
			if rngRef.Int63() != rngLive.Int63() {
				t.Fatalf("n=%d seed=%d: pmxInto consumed a different number of RNG draws", n, seed)
			}
		}
	}
}
