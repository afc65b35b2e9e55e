package search

import (
	"fmt"

	"phonocmap/internal/core"
)

// Tabu is tabu search over the swap-move neighborhood: each iteration
// ranks the full admitted-move list (like R-PBLA) but applies the best
// non-tabu move even when it is uphill, keeping recently used moves in a
// tabu list to avoid cycling. An aspiration criterion overrides the tabu
// status of moves that would improve on the global incumbent.
type Tabu struct {
	// Tenure is the number of iterations a move stays tabu; 0 picks a
	// problem-sized default (number of tasks).
	Tenure int
}

// NewTabu returns a tabu search with defaults.
func NewTabu() *Tabu { return &Tabu{} }

// Name returns "tabu".
func (t *Tabu) Name() string { return "tabu" }

// Search implements core.Searcher.
func (t *Tabu) Search(ctx *core.Context) error {
	if t.Tenure < 0 {
		return fmt.Errorf("search: tabu tenure must be >= 0, got %d", t.Tenure)
	}
	tenure := t.Tenure
	if tenure == 0 {
		tenure = ctx.Problem().NumTasks()
	}
	numTiles := ctx.Problem().NumTiles()

	// Seat the incremental session on the random start (one budget unit,
	// exactly like the full evaluation it replaces); every subsequent move
	// in the ranking rounds is a delta evaluation.
	cur := ctx.RandomMapping()
	if _, ok, err := ctx.StartSwaps(cur); err != nil || !ok {
		return err
	}
	_, bestScore, _ := ctx.Best()
	moves := admittedMoves(ctx.SwapSession().TaskAt, numTiles)
	// One entry per applied move, so no size hint: a ranking round
	// costs len(moves) evaluations and a run applies few moves.
	expires := make(map[move]int)
	var ranked []rankedMove

	for iter := 0; !ctx.Exhausted(); iter++ {
		var err error
		var full bool
		ranked, full, err = rankMoves(ctx, moves, ranked)
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
			// Apply the winner without spending budget — its score was
			// already paid for during the ranking round.
			if err := ctx.ApplySwap(rm.m.a, rm.m.b); err != nil {
				return err
			}
			expires[rm.m] = iter + tenure
			if rm.score.Better(bestScore) {
				bestScore = rm.score
			}
			applied = true
			break
		}
		if !applied {
			// Every move tabu and none aspires: age the list by clearing
			// the oldest entries (cheap approximation: drop all).
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
