// Package search implements the mapping optimization strategies of
// PhoNoCMap's design space exploration engine (Section II-D.2): the three
// algorithms evaluated in the paper — random search (RS), a genetic
// algorithm (GA) and the randomized priority-based list algorithm
// (R-PBLA) — plus additional strategies (simulated annealing, tabu
// search, exhaustive enumeration) exercising the paper's claim that new
// optimizers plug in without changes to the tool core.
//
// Every algorithm draws randomness exclusively from the run context and
// spends evaluations through core.Context.Evaluate, which enforces the
// equal-budget fairness rule and tracks the incumbent.
package search

import (
	"fmt"
	"slices"

	"phonocmap/internal/core"
	"phonocmap/internal/topo"
)

// New returns a fresh instance of the named algorithm with default
// parameters. Known names: "rs", "ga", "rpbla", "sa", "tabu", "memetic",
// "exhaustive".
func New(name string) (core.Searcher, error) {
	switch name {
	case "rs":
		return RS{}, nil
	case "ga":
		return NewGA(), nil
	case "rpbla":
		return NewRPBLA(), nil
	case "sa":
		return NewSA(), nil
	case "tabu":
		return NewTabu(), nil
	case "memetic":
		return NewMemetic(), nil
	case "exhaustive":
		return Exhaustive{}, nil
	default:
		return nil, fmt.Errorf("search: unknown algorithm %q (have %v)", name, Names())
	}
}

// Names lists the built-in algorithm names, paper algorithms first.
func Names() []string {
	return []string{"rs", "ga", "rpbla", "sa", "tabu", "memetic", "exhaustive"}
}

// PaperNames lists the three algorithms compared in Table II.
func PaperNames() []string { return []string{"rs", "ga", "rpbla"} }

// move is one admitted move of the priority-based list algorithms: swap
// the contents of two tiles, at least one of which hosts a task.
type move struct {
	a, b topo.TileID
}

// admittedMoves enumerates every admitted move for a problem of the given
// size, in deterministic order: all tile pairs (a < b) where at least one
// side will host a task. For fully packed problems this is all task-task
// swaps; with spare tiles it also includes task relocations. taskAt
// reports the task hosted on a tile (-1 when free) — typically
// core.SwapSession.TaskAt.
func admittedMoves(taskAt func(topo.TileID) int, numTiles int) []move {
	res := make([]move, 0, numTiles*(numTiles-1)/2)
	for a := 0; a < numTiles; a++ {
		for b := a + 1; b < numTiles; b++ {
			if taskAt(topo.TileID(a)) >= 0 || taskAt(topo.TileID(b)) >= 0 {
				res = append(res, move{a: topo.TileID(a), b: topo.TileID(b)})
			}
		}
	}
	return res
}

// rankedMove pairs a move with its evaluated score for the priority list.
type rankedMove struct {
	m     move
	score core.Score
}

// rankMoves evaluates every admitted move from the current state of the
// context's swap session and returns the moves sorted best-first (the
// paper's priority-based list, "ordered according to the worst-case power
// loss or SNR associated with any potential move"). Each move is scored
// incrementally — evaluate the swap, record, revert — so a ranking round
// costs O(moves · Δ) instead of O(moves · full evaluation). It consumes
// one budget unit per move; when the budget runs out midway the evaluated
// prefix is returned with ok=false.
func rankMoves(ctx *core.Context, moves []move, buf []rankedMove) ([]rankedMove, bool, error) {
	// Size the list once for the longest round the budget allows.
	if n := min(len(moves), ctx.Remaining()); cap(buf) < n {
		buf = make([]rankedMove, 0, n)
	}
	buf = buf[:0]
	for _, mv := range moves {
		score, ok, err := ctx.EvaluateSwap(mv.a, mv.b)
		if err != nil {
			return buf, false, err
		}
		if !ok {
			return buf, false, nil
		}
		if err := ctx.RevertSwap(); err != nil {
			return buf, false, err
		}
		buf = append(buf, rankedMove{m: mv, score: score})
	}
	slices.SortStableFunc(buf, func(x, y rankedMove) int {
		switch {
		case x.score.Better(y.score):
			return -1
		case y.score.Better(x.score):
			return 1
		}
		return 0
	})
	return buf, true, nil
}
