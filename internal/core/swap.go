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
// incidence lists, objective) and the immutable network, never the
// problem's own evaluator scratch. SwapSessionPool builds on this.
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
	changed    []int
	newComms   []analysis.Communication
	edgeSeen   []bool
	reseatPrev Mapping // pre-Reseat mapping, for error restoration
	seenTiles  []bool  // Reseat validation scratch
}

// NewSwapSession evaluates m in full through the incremental engine and
// returns a session seated on it. The mapping is copied.
func (p *Problem) NewSwapSession(m Mapping) (*SwapSession, error) {
	if len(m) != p.app.NumTasks() {
		return nil, fmt.Errorf("core: mapping covers %d tasks, app has %d", len(m), p.app.NumTasks())
	}
	if err := m.Validate(p.nw.NumTiles()); err != nil {
		return nil, err
	}
	// Sibling sessions of a pool get here concurrently; tableFor is
	// safe for that.
	var inc *analysis.Incremental
	if tab := tableFor(p.nw); tab != nil {
		inc = analysis.NewTableIncremental(tab)
	} else {
		inc = analysis.NewIncremental(p.nw)
	}
	ss := &SwapSession{
		prob:      p,
		inc:       inc,
		m:         m.Clone(),
		taskOf:    make([]int, p.nw.NumTiles()),
		edgeSeen:  make([]bool, len(p.edges)),
		seenTiles: make([]bool, p.nw.NumTiles()),
	}
	for t := range ss.taskOf {
		ss.taskOf[t] = -1
	}
	for task, tile := range ss.m {
		ss.taskOf[tile] = task
	}
	comms := make([]analysis.Communication, len(p.edges))
	for i, e := range p.edges {
		comms[i] = analysis.Communication{Src: ss.m[e.Src], Dst: ss.m[e.Dst]}
	}
	var res analysis.Result
	var err error
	if p.obj == MinimizeWeightedLoss {
		res, err = ss.inc.InitWeighted(comms, p.weights)
	} else {
		res, err = ss.inc.Init(comms)
	}
	if err != nil {
		return nil, err
	}
	if ss.score, err = p.scoreFrom(res); err != nil {
		return nil, err
	}
	return ss, nil
}

// Problem returns the problem the session evaluates against.
func (ss *SwapSession) Problem() *Problem { return ss.prob }

// Release returns the session's incremental engine to the analysis
// package's buffer pool, so the next session stood up anywhere in the
// process reuses its occupancy map and accumulators instead of
// allocating fresh ones. The session must not be used afterwards.
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

// Reseat moves the session onto an arbitrary valid mapping, evaluating it
// by delta from the current one: only the edges incident to tasks whose
// tile changed are re-evaluated. The move is committed immediately (no
// Revert). Cost degrades gracefully to a full evaluation when the two
//
// mappings share nothing.
//
//phonocmap:noalloc
func (ss *SwapSession) Reseat(m Mapping) (Score, error) {
	if ss.pending {
		return Score{}, fmt.Errorf("core: unresolved tentative swap (%d,%d); Commit or Revert first", ss.pa, ss.pb)
	}
	if len(m) != len(ss.m) {
		return Score{}, fmt.Errorf("core: mapping covers %d tasks, app has %d", len(m), len(ss.m))
	}
	if err := m.validate(len(ss.taskOf), ss.seenTiles); err != nil {
		return Score{}, err
	}
	ss.changed = ss.changed[:0]
	ss.newComms = ss.newComms[:0]
	moved := false
	for task, tile := range m {
		if ss.m[task] != tile {
			moved = true
			break
		}
	}
	if !moved {
		return ss.score, nil
	}
	ss.reseatPrev = append(ss.reseatPrev[:0], ss.m...)
	// Re-seat the occupancy view, then collect the edges whose endpoints
	// moved.
	for task, tile := range ss.m {
		if m[task] != tile {
			ss.taskOf[tile] = -1
		}
	}
	for task, tile := range m {
		if ss.m[task] != tile {
			ss.taskOf[tile] = task
			for _, ei := range ss.prob.incident[task] {
				if !ss.edgeSeen[ei] {
					ss.edgeSeen[ei] = true
					ss.changed = append(ss.changed, ei)
				}
			}
		}
	}
	copy(ss.m, m)
	for _, ei := range ss.changed {
		ss.edgeSeen[ei] = false
		e := ss.prob.edges[ei]
		ss.newComms = append(ss.newComms, analysis.Communication{Src: ss.m[e.Src], Dst: ss.m[e.Dst]})
	}
	res, err := ss.inc.ApplyDelta(ss.changed, ss.newComms)
	if err != nil {
		ss.restoreMapping(ss.reseatPrev)
		return Score{}, err
	}
	s, err := ss.prob.scoreFrom(res)
	if err != nil {
		// Keep the session consistent even on a (physically impossible)
		// NaN cost, like EvaluateSwap.
		ss.restoreMapping(ss.reseatPrev)
		if _, uerr := ss.inc.Undo(); uerr != nil {
			return Score{}, fmt.Errorf("%w (undo failed: %v)", err, uerr)
		}
		return Score{}, err
	}
	ss.score = s
	return s, nil
}

// restoreMapping rolls the mapping and occupancy view back to old after
// a failed Reseat (the incremental engine was left on the old state by
// its own error handling or an explicit Undo).
func (ss *SwapSession) restoreMapping(old Mapping) {
	for task, tile := range ss.m {
		if old[task] != tile {
			ss.taskOf[tile] = -1
		}
	}
	for task, tile := range old {
		if ss.m[task] != tile {
			ss.taskOf[tile] = task
		}
	}
	copy(ss.m, old)
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
