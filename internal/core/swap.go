package core

import (
	"fmt"

	"phonocmap/internal/analysis"
	"phonocmap/internal/topo"
)

// SwapSession is the incremental counterpart of Problem.Evaluate for
// searchers that move through the swap neighborhood. It owns a mapping, a
// tile-occupancy view and an analysis.Incremental seated on the induced
// communication set; swapping two tiles re-evaluates only the CG edges
// incident to the two moved tasks (plus the communications they share
// elements with) instead of the whole application.
//
// Scores are bit-for-bit identical to Problem.Evaluate on the same
// mapping, for all three objectives — the session exists to make
// evaluations cheaper, never different.
//
// The evaluate-then-decide protocol mirrors how swap searchers think:
// EvaluateSwap applies a tentative swap and scores it; the caller then
// either Commit()s (keep the move) or Revert()s (restore the previous
// state exactly). A session is single-tentative: resolve each swap before
// the next call. Like Problem, a session is not safe for concurrent use —
// but sibling sessions of the same Problem may run concurrently with each
// other: a session reads only the problem's immutable data (edges,
// incidence lists, weights, objective) and the immutable network, never
// the problem's own evaluator scratch.
type SwapSession struct {
	prob *Problem
	inc  *analysis.Incremental

	m      Mapping // current mapping (tentative swap included)
	taskOf []int   // tile -> task index, -1 when free
	score  Score

	pending   bool // a tentative swap awaits Commit/Revert
	pa, pb    topo.TileID
	prevScore Score

	// scratch for the edge-delta mapper
	changed  []int
	newComms []analysis.Communication
	edgeSeen []bool
	// seat's scratch: the seated communication set and the validation
	// marks
	comms     []analysis.Communication
	seenTiles []bool
}

// NewSwapSession evaluates m in full through the incremental engine and
// returns a session seated on it. The mapping is copied.
func (p *Problem) NewSwapSession(m Mapping) (*SwapSession, error) {
	// Sibling sessions get here concurrently; TableFor is safe for that.
	var inc *analysis.Incremental
	if tab := TableFor(p.nw); tab != nil {
		inc = analysis.NewTableIncremental(tab)
	} else {
		inc = analysis.NewIncremental(p.nw)
	}
	ss := &SwapSession{
		prob:      p,
		inc:       inc,
		taskOf:    make([]int, p.nw.NumTiles()),
		edgeSeen:  make([]bool, len(p.edges)),
		comms:     make([]analysis.Communication, len(p.edges)),
		seenTiles: make([]bool, p.nw.NumTiles()),
	}
	if _, err := ss.seat(m); err != nil {
		return nil, err
	}
	return ss, nil
}

// Problem returns the problem the session evaluates against.
func (ss *SwapSession) Problem() *Problem { return ss.prob }

// Release ends the session's use: it releases the session's engine and
// drops it. The session must not be used afterwards.
func (ss *SwapSession) Release() {
	if ss.inc != nil {
		ss.inc.Release()
		ss.inc = nil
	}
}

// Score returns the score of the current (tentative included) mapping.
func (ss *SwapSession) Score() Score { return ss.score }

// Mapping returns the session's current mapping. The slice is the
// session's own state — callers must Clone it to retain it across moves.
func (ss *SwapSession) Mapping() Mapping { return ss.m }

// TaskAt returns the task hosted on a tile, or -1 when the tile is free
// or out of range.
func (ss *SwapSession) TaskAt(tile topo.TileID) int {
	if tile < 0 || int(tile) >= len(ss.taskOf) {
		return -1
	}
	return ss.taskOf[tile]
}

// Pending reports whether a tentative swap awaits Commit or Revert.
func (ss *SwapSession) Pending() bool { return ss.pending }

// EvaluateSwap tentatively exchanges the contents of two tiles (tasks or
// emptiness) and returns the score of the resulting mapping, touching
// only the communications the swap changes. Resolve the move with Commit
// or Revert before the next call. Swapping two free tiles (or a tile
//
// with itself) is a legal zero-delta evaluation of the unchanged mapping.
//
//phonocmap:noalloc
func (ss *SwapSession) EvaluateSwap(a, b topo.TileID) (Score, error) {
	if ss.pending {
		return Score{}, fmt.Errorf("core: unresolved tentative swap (%d,%d); Commit or Revert first", ss.pa, ss.pb)
	}
	n := len(ss.taskOf)
	if a < 0 || int(a) >= n || b < 0 || int(b) >= n {
		return Score{}, fmt.Errorf("core: swap tiles (%d,%d) out of range [0,%d)", a, b, n)
	}
	ss.applySwap(a, b)
	res, err := ss.inc.ApplyDelta(ss.collectDelta(a, b))
	if err != nil {
		ss.applySwap(a, b) // restore the mapping view
		return Score{}, err
	}
	s, err := ss.prob.scoreFrom(res)
	if err != nil {
		// NaN cost: physically impossible on a valid mapping, but keep the
		// session consistent anyway.
		ss.applySwap(a, b)
		if _, uerr := ss.inc.Undo(); uerr != nil {
			return Score{}, fmt.Errorf("%w (undo failed: %v)", err, uerr)
		}
		return Score{}, err
	}
	ss.pending = true
	ss.pa, ss.pb = a, b
	ss.prevScore = ss.score
	ss.score = s
	return s, nil
}

// Commit keeps the tentative swap.
func (ss *SwapSession) Commit() {
	ss.pending = false
}

// Revert undoes the tentative swap, restoring mapping and cached physics
//
// to their exact previous state.
//
//phonocmap:noalloc
func (ss *SwapSession) Revert() error {
	if !ss.pending {
		return fmt.Errorf("core: no tentative swap to revert")
	}
	if _, err := ss.inc.Undo(); err != nil {
		return err
	}
	ss.applySwap(ss.pa, ss.pb)
	ss.score = ss.prevScore
	ss.pending = false
	return nil
}

// Reseat moves the session onto an arbitrary valid mapping, evaluating
// it in full on the session's engine, whose buffers it reuses. The move
// is committed immediately (no Revert). On an error the session stays on
// its current mapping and score.
//
//phonocmap:noalloc
func (ss *SwapSession) Reseat(m Mapping) (Score, error) {
	if ss.pending {
		return Score{}, fmt.Errorf("core: unresolved tentative swap (%d,%d); Commit or Revert first", ss.pa, ss.pb)
	}
	return ss.seat(m)
}

// seat validates m, initialises the engine on the communications m
// induces and, once m has scored, takes m as the session's mapping,
// occupancy view and score. Until then none of those changes, so on an
// error the session stays where it was (a session that NewSwapSession
// has not yet seated holds no mapping).
//
//phonocmap:noalloc
func (ss *SwapSession) seat(m Mapping) (Score, error) {
	res, err := ss.initEngine(m)
	if err != nil {
		return Score{}, err
	}
	s, err := ss.prob.scoreFrom(res)
	if err != nil {
		// NaN cost: physically impossible on a valid mapping, but seat
		// the engine back on the session's mapping so the two still agree.
		if ss.m != nil {
			if _, ierr := ss.initEngine(ss.m); ierr != nil {
				return Score{}, fmt.Errorf("%w (re-seat failed: %v)", err, ierr)
			}
		}
		return Score{}, err
	}
	ss.m = append(ss.m[:0], m...)
	for t := range ss.taskOf {
		ss.taskOf[t] = -1
	}
	for task, tile := range ss.m {
		ss.taskOf[tile] = task
	}
	ss.score = s
	return s, nil
}

// initEngine validates m and initialises the engine on the
// communications m induces, evaluating them in full. A mapping that
// fails validation leaves the engine as it was.
func (ss *SwapSession) initEngine(m Mapping) (analysis.Result, error) {
	p := ss.prob
	if err := p.commsOf(m, ss.comms, ss.seenTiles); err != nil {
		return analysis.Result{}, err
	}
	if p.obj == MinimizeWeightedLoss {
		return ss.inc.InitWeighted(ss.comms, p.weights)
	}
	return ss.inc.Init(ss.comms)
}

// applySwap exchanges the contents of two tiles in the mapping and the
//
// occupancy view (its own inverse).
//
//phonocmap:noalloc
func (ss *SwapSession) applySwap(a, b topo.TileID) {
	ta, tb := ss.taskOf[a], ss.taskOf[b]
	ss.taskOf[a], ss.taskOf[b] = tb, ta
	if ta >= 0 {
		ss.m[ta] = b
	}
	if tb >= 0 {
		ss.m[tb] = a
	}
}

// collectDelta lists the CG edges incident to the tasks now on tiles a
// and b (post-swap) and their induced communications under the current
//
// mapping. An edge between the two swapped tasks appears once.
//
//phonocmap:noalloc
func (ss *SwapSession) collectDelta(a, b topo.TileID) ([]int, []analysis.Communication) {
	ss.changed = ss.changed[:0]
	ss.newComms = ss.newComms[:0]
	for _, t := range [2]int{ss.taskOf[a], ss.taskOf[b]} {
		if t < 0 {
			continue
		}
		for _, ei := range ss.prob.incident[t] {
			if !ss.edgeSeen[ei] {
				ss.edgeSeen[ei] = true
				ss.changed = append(ss.changed, ei)
			}
		}
	}
	for _, ei := range ss.changed {
		ss.edgeSeen[ei] = false
		e := ss.prob.edges[ei]
		ss.newComms = append(ss.newComms, analysis.Communication{Src: ss.m[e.Src], Dst: ss.m[e.Dst]})
	}
	return ss.changed, ss.newComms
}
