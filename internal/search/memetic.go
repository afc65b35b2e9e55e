package search

import (
	"fmt"

	"phonocmap/internal/core"
	"phonocmap/internal/topo"
)

// Memetic is a hybrid of the paper's two strong strategies: a genetic
// algorithm for global exploration with a bounded swap-neighborhood
// probe (the R-PBLA move) applied to the incumbent after each burst.
// It is one of the "other strategies" the extensible DSE engine admits,
// and typically converges faster than either parent algorithm on dense
// CGs where GA crossover alone stalls near good basins.
type Memetic struct {
	// GA configures the underlying genetic algorithm.
	GA *GA
	// RefineMoves bounds the random swap moves tried when refining the
	// incumbent after each burst (each non-degenerate move costs one
	// evaluation).
	RefineMoves int
}

// NewMemetic returns a memetic searcher with default parameters.
func NewMemetic() *Memetic {
	return &Memetic{GA: NewGA(), RefineMoves: 24}
}

// Name returns "memetic".
func (m *Memetic) Name() string { return "memetic" }

// Search implements core.Searcher. The memetic search alternates short
// GA bursts (fresh populations on a budget slice, in the manner of
// iterated restarts) with a swap-neighborhood probe of the shared
// incumbent; the context's incumbent ledger carries progress across
// bursts.
//
// Each refinement leg drafts RefineMoves random tile swaps relative to
// the incumbent, drops the degenerate ones (same tile, or two free
// tiles — zero-delta moves that would waste budget) and scores the rest
// in one Context.EvaluateBatch call: the probes are independent
// single-swap neighbors of one base mapping, so they parallelize across
// eval workers, each probe a full evaluation, while the batch's ordered
// accounting keeps the incumbent update sequence identical to a
// sequential probe loop.
func (m *Memetic) Search(ctx *core.Context) error {
	if m.GA == nil {
		return fmt.Errorf("search: memetic needs a GA configuration")
	}
	if m.RefineMoves < 1 {
		return fmt.Errorf("search: memetic RefineMoves must be >= 1, got %d", m.RefineMoves)
	}
	if err := m.GA.validate(); err != nil {
		return err
	}
	numTiles := ctx.Problem().NumTiles()
	numTasks := ctx.Problem().NumTasks()
	rng := ctx.Rng()

	// Refinement scratch, reused across legs: the incumbent's occupancy
	// view and a slab backing the candidate neighbor mappings.
	taskOf := make([]int, numTiles)
	slab := make([]topo.TileID, m.RefineMoves*numTasks)
	cands := make([]core.Mapping, 0, m.RefineMoves)

	for !ctx.Exhausted() {
		// GA burst: roughly four generations worth of evaluations.
		burst := 4 * m.GA.PopSize
		if remaining := ctx.Remaining(); burst > remaining {
			burst = remaining
		}
		if err := ctx.WithBudgetSlice(burst, m.GA.Search); err != nil {
			return err
		}
		// Local refinement: probe the swap neighborhood of the incumbent.
		best, _, ok := ctx.Best()
		if !ok {
			return nil
		}
		for t := range taskOf {
			taskOf[t] = -1
		}
		for task, tile := range best {
			taskOf[tile] = task
		}
		cands = cands[:0]
		for i := 0; i < m.RefineMoves; i++ {
			a := rng.Intn(numTiles)
			b := rng.Intn(numTiles)
			if a == b || (taskOf[a] < 0 && taskOf[b] < 0) {
				continue
			}
			cand := core.Mapping(slab[len(cands)*numTasks : (len(cands)+1)*numTasks])
			copy(cand, best)
			if ta := taskOf[a]; ta >= 0 {
				cand[ta] = topo.TileID(b)
			}
			if tb := taskOf[b]; tb >= 0 {
				cand[tb] = topo.TileID(a)
			}
			cands = append(cands, cand)
		}
		if _, _, err := ctx.EvaluateBatch(cands); err != nil {
			return err
		}
	}
	return nil
}
