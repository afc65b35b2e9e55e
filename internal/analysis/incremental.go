package analysis

import (
	"fmt"

	"phonocmap/internal/network"
)

// Incremental is the delta-evaluation engine behind swap-move search: it
// keeps the element-occupancy map and the per-victim noise accumulators
// of one communication set alive across calls, so that changing a few
// communications (the edges incident to two swapped tiles) costs only
// the work local to the changed paths instead of a full re-evaluation.
//
// An Incremental is an Evaluator plus an undo log: Init runs the
// Evaluator's whole-set evaluation and keeps its paths, path indices,
// occupancy map and accumulators for the deltas that follow. A rejected
// Init leaves the engine unseated, so ApplyDelta and Undo fail until the
// next Init succeeds.
//
// An Incremental scores with one of two engines, chosen when it is made:
// the pair kernel (NewIncremental), described below, or the network's
// path table (NewTableIncremental), where a delta costs about 3·|Δ|·m
// table reads (PathTable.delta), above tableRecomputeNum/tableRecomputeDen
// of m changed a fresh whole-set sum instead, and Undo restores an O(m)
// snapshot of the accumulators.
//
// Bit-for-bit contract: every Result an Incremental produces is
// identical — to the last bit — to Evaluator.Evaluate (or
// EvaluateWeighted) on the same communication slice, on either engine.
// Both engines add the pair kernel's terms: per-victim noise is an
// integer sum of quantized pairwise contributions, and integer addition
// is order-independent and exactly invertible. A delta therefore subtracts
// the departing steps' contributions from each victim they shared
// elements with, adds the arriving ones, and lands on exactly the
// integer a full evaluation would compute. The conflict total moves by
// 2 per contending pair that leaves or arrives.
//
// Cost of ApplyDelta on the kernel, with m communications, |Δ| changed
// ones and occ the mean element occupancy:
//
//   - two scans per changed communication, O(|path|·occ) each. The
//     first detaches the old path: it takes back the old steps'
//     contributions and drops their entries in the same pass. The
//     second attaches the new path: it adds the new contributions and
//     builds the changed communication's own accumulator from the
//     pairs it meets. A pair of two changed communications is handled
//     once, when the later one attaches. Untouched pairs are never
//     visited.
//   - O(m) to fold the cached per-victim values into the worst-case
//     trackers and the (weighted) mean: float compares plus one log10
//     per noisy victim, no pairwise work.
//
// Scans are exact at any |Δ|. Only swaps make kernel deltas, the edges
// incident to two moved tasks; a mapping that is not a neighbour of the
// seated one is seated afresh with Init.
//
// Undo does no pair work. It costs O(|path|) per changed communication
// plus one store per touched victim: it pops the new paths' entries off
// the ends of their lists and re-appends the old ones.
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	// ev scores the seated set and keeps what deltas patch: its paths,
	// path indices, occupancy map, per-victim noise (ev.acc) and weights
	// (set by InitWeighted, constant across deltas).
	ev Evaluator

	// conflicts is the seated set's contention total. weightsBuf is the
	// reusable backing store of ev.weights, so re-Init copies instead of
	// allocating.
	conflicts  int
	weightsBuf []float64

	res    Result
	inited bool

	// Per-delta scratch: changedMark flags the communications being
	// replaced (catches duplicates); touchedMark flags every victim whose
	// accumulator was snapshotted for undo; resolved holds the paths of
	// the incoming communications, looked up while they are validated.
	changedMark []bool
	touchedMark []bool
	resolved    []*network.Path

	// Single-level undo log for the last ApplyDelta. After a delta on
	// the table, undoNoise holds every accumulator and undoTouched is
	// empty.
	undoValid   bool
	undoChanged []int
	undoPaths   []*network.Path
	undoIdx     []int32
	undoTouched []int
	undoNoise   []int64
	undoRes     Result
}

// On a path table, a delta changing more than
// tableRecomputeNum/tableRecomputeDen of the communications is applied by
// summing the whole table again (PathTable.sum) instead of patching
// (PathTable.delta). Both ways snapshot
// and fold all m victims, which bounds what patching saves. Timed both
// ways, committed and undone, on 120 swaps and 120 multi-task reseats
// per instance (median of 7 interleaved rounds, Intel Xeon, 2 vCPUs) on
// PIP (3×3), MWD, VOPD (mesh and torus) and 263dec (4×4), Wavelet (5×5
// mesh and torus) and the 4×4 mesh with 48 communications, a patch of
// 5–10 % of the set costs 0.44–0.84× a sum, and patches break even at
// 25–45 %. Summed over the eight instances, the loss against picking
// the cheaper way per delta was 4–10 % at a third and 3–10 % at 2/5
// (8–17 % at 1/4, 12–16 % at 1/2; four runs, committed and undone
// alike, since Undo restores the same snapshot either way). The two
// tied, and a third was kept. Those timings were taken on dense tables,
// when Wavelet's 5×5 networks had one too; the compact layout, which
// 5×5 and 6×6 networks now take, was not re-timed.
const tableRecomputeNum, tableRecomputeDen = 1, 3

// NewIncremental returns an incremental evaluator for the network,
// scoring with the pair kernel. Call Init before anything else.
func NewIncremental(nw *network.Network) *Incremental {
	inc := &Incremental{ev: Evaluator{nw: nw}}
	inc.ev.occ.bind(nw)
	return inc
}

// NewTableIncremental is NewIncremental on the table's network, scoring
// from the table; it binds no occupancy map.
func NewTableIncremental(t *PathTable) *Incremental {
	return &Incremental{ev: Evaluator{nw: t.nw, tab: t}}
}

// Release ends the engine's use: it unseats the engine, so ApplyDelta
// and Undo fail afterwards.
func (inc *Incremental) Release() {
	inc.inited = false
	inc.undoValid = false
}

// Init seats the engine on a communication set, evaluating it in full.
// The caller's slice is not retained.
func (inc *Incremental) Init(comms []Communication) (Result, error) {
	return inc.init(comms, nil)
}

// InitWeighted is Init with per-communication weights (see
// Evaluator.EvaluateWeighted): AvgLossDB becomes the weight-averaged
// insertion loss. The weights persist across deltas — they belong to the
// CG edges, whose order never changes.
func (inc *Incremental) InitWeighted(comms []Communication, weights []float64) (Result, error) {
	if err := checkWeights(len(comms), weights); err != nil {
		inc.inited, inc.undoValid = false, false
		return Result{}, err
	}
	inc.weightsBuf = append(inc.weightsBuf[:0], weights...)
	return inc.init(comms, inc.weightsBuf)
}

// init runs the Evaluator's whole-set evaluation of comms under weights
// and keeps its result and state for deltas.
func (inc *Incremental) init(comms []Communication, weights []float64) (Result, error) {
	inc.inited, inc.undoValid = false, false
	inc.ev.weights = weights
	res, err := inc.ev.run(comms, nil, nil)
	if err != nil {
		return Result{}, err
	}
	m := len(comms)
	if cap(inc.changedMark) < m {
		inc.changedMark = make([]bool, m)
		inc.touchedMark = make([]bool, m)
	}
	inc.changedMark = inc.changedMark[:m]
	inc.touchedMark = inc.touchedMark[:m]
	clear(inc.changedMark)
	clear(inc.touchedMark)
	inc.res, inc.conflicts = res, res.Conflicts
	inc.inited = true
	return res, nil
}

// Result returns the metrics of the current communication set.
func (inc *Incremental) Result() Result { return inc.res }

// ApplyDelta replaces comms[changed[i]] with newComms[i] and returns the
// metrics of the updated set, patching only the victims that share
// elements with the changed communications (see the type docs for the
// cost). The previous state is retained for one Undo.
func (inc *Incremental) ApplyDelta(changed []int, newComms []Communication) (Result, error) {
	if !inc.inited {
		return Result{}, fmt.Errorf("analysis: ApplyDelta before Init")
	}
	if len(changed) != len(newComms) {
		return Result{}, fmt.Errorf("analysis: %d indices for %d communications", len(changed), len(newComms))
	}
	n, m := inc.ev.nw.NumTiles(), len(inc.ev.paths)
	inc.resolved = inc.resolved[:0]
	for i, ci := range changed {
		var err error
		switch c := newComms[i]; {
		case ci < 0 || ci >= m:
			err = fmt.Errorf("analysis: changed index %d out of range [0,%d)", ci, m)
		case inc.changedMark[ci]:
			err = fmt.Errorf("analysis: changed index %d listed twice", ci)
		case c.Src < 0 || int(c.Src) >= n || c.Dst < 0 || int(c.Dst) >= n || c.Src == c.Dst:
			err = fmt.Errorf("analysis: communication %d: invalid replacement (%d->%d)", ci, c.Src, c.Dst)
		default:
			p := inc.ev.nw.Path(c.Src, c.Dst)
			if p == nil {
				err = noPath(ci, c)
			}
			inc.resolved = append(inc.resolved, p)
		}
		if err != nil {
			for _, cj := range changed[:i] {
				inc.changedMark[cj] = false
			}
			return Result{}, err
		}
		inc.changedMark[ci] = true
	}

	// Open the undo log.
	inc.undoChanged = append(inc.undoChanged[:0], changed...)
	inc.undoPaths = inc.undoPaths[:0]
	inc.undoTouched = inc.undoTouched[:0]
	inc.undoNoise = inc.undoNoise[:0]
	inc.undoIdx = inc.undoIdx[:0]
	inc.undoRes = inc.res
	for _, ci := range changed {
		inc.undoPaths = append(inc.undoPaths, inc.ev.paths[ci])
		inc.undoIdx = append(inc.undoIdx, inc.ev.idx[ci])
	}

	if inc.ev.tab != nil {
		// An O(m) snapshot, then a patch or a fresh sum.
		inc.undoNoise = append(inc.undoNoise, inc.ev.acc...)
		inc.reroute(changed, newComms)
		if len(changed)*tableRecomputeDen > m*tableRecomputeNum {
			inc.conflicts = inc.ev.score(nil)
		} else {
			inc.conflicts += inc.ev.tab.delta(inc.ev.idx, inc.ev.acc, changed, inc.undoIdx, inc.changedMark)
		}
	} else {
		// Every victim snapshots its accumulator the moment it is first
		// touched; the changed ones up front, since their accumulators
		// are rebuilt from zero.
		for _, ci := range changed {
			inc.touch(ci)
		}
		for _, ci := range changed {
			inc.detach(ci)
		}
		inc.reroute(changed, newComms)
		for _, ci := range changed {
			inc.ev.acc[ci] = 0
		}
		for _, ci := range changed {
			inc.attach(ci)
		}
		for _, vi := range inc.undoTouched {
			inc.touchedMark[vi] = false
		}
	}
	for _, ci := range changed {
		inc.changedMark[ci] = false
	}
	inc.res = fold(inc.ev.paths, inc.ev.acc, inc.ev.weights, inc.conflicts, nil)
	inc.undoValid = true
	return inc.res, nil
}

// reroute points the changed communications at their new paths.
func (inc *Incremental) reroute(changed []int, newComms []Communication) {
	n := inc.ev.nw.NumTiles()
	for i, ci := range changed {
		c := newComms[i]
		inc.ev.paths[ci] = inc.resolved[i]
		inc.ev.idx[ci] = int32(int(c.Src)*n + int(c.Dst))
	}
}

// detach is the first scan of a delta: it removes communication c's
// entries from the elements of its current path and, in the same pass,
// takes back what each of those steps contributed to the other
// occupants. What it takes from another changed communication is
// discarded when that one's accumulator restarts from zero.
func (inc *Incremental) detach(c int) {
	p := inc.ev.paths[c]
	for si := range p.Steps {
		s := &p.Steps[si]
		a := entryOf(c, s)
		occ := inc.ev.occ.lists[s.Node]
		w := 0
		for r := range occ {
			v := &occ[r]
			if v.comm == a.comm {
				continue
			}
			t := pairOf(v.class, a.class)
			inc.conflicts -= int(t & contends)
			if t&leaksIntoFirst != 0 {
				inc.touch(int(v.comm))
				inc.ev.acc[v.comm] -= inc.ev.occ.noise(v, &a)
			}
			if w != r {
				occ[w] = *v
			}
			w++
		}
		inc.ev.occ.lists[s.Node] = occ[:w]
	}
}

// attach is the second scan of a delta: it enters communication c's new
// path step by step, adding each step's contribution to the occupants it
// meets and, in the same pass, theirs to c's own accumulator.
// Occupants include the changed communications attached before c, so
// each changed-changed pair is handled here exactly once.
func (inc *Incremental) attach(c int) {
	p := inc.ev.paths[c]
	var own int64
	for si := range p.Steps {
		s := &p.Steps[si]
		a := entryOf(c, s)
		occ := inc.ev.occ.lists[s.Node]
		for r := range occ {
			v := &occ[r]
			if v.comm == a.comm {
				continue
			}
			t := pairOf(v.class, a.class)
			inc.conflicts += int(t & contends)
			if t&leaksIntoFirst != 0 {
				inc.touch(int(v.comm))
				inc.ev.acc[v.comm] += inc.ev.occ.noise(v, &a)
			}
			if t&leaksIntoSecond != 0 {
				own += inc.ev.occ.noise(&a, v)
			}
		}
		inc.ev.occ.add(s.Node, a)
	}
	inc.ev.acc[c] = own
}

// Undo reverts the last ApplyDelta, restoring paths, occupancy and every
// cached accumulator to their exact previous values. Only one level of
// undo is kept; a second Undo (or an Undo after Init) fails.
//
// On the kernel, Undo rests on a tail invariant: the entries attach
// appended are the last entries of their lists. attach appends one
// entry per step of each new path, a path crosses an element once, and
// nothing appends between a delta and its undo, so each list's last k
// entries are exactly its k new-path entries. Popping them and
// re-appending the old paths' entries restores every list's multiset of
// entries, though not its order, which no pair loop depends on.
func (inc *Incremental) Undo() (Result, error) {
	if !inc.undoValid {
		return Result{}, fmt.Errorf("analysis: nothing to undo")
	}
	if inc.ev.tab != nil {
		// Restore the snapshot of every accumulator.
		for i, ci := range inc.undoChanged {
			inc.ev.paths[ci] = inc.undoPaths[i]
			inc.ev.idx[ci] = inc.undoIdx[i]
		}
		copy(inc.ev.acc, inc.undoNoise)
	} else {
		// Pop the new paths' entries, re-append the old ones, and restore
		// the snapshotted accumulators (no pair work: the stored values
		// are the previous values).
		for _, ci := range inc.undoChanged {
			p := inc.ev.paths[ci]
			for si := range p.Steps {
				occ := inc.ev.occ.lists[p.Steps[si].Node]
				inc.ev.occ.lists[p.Steps[si].Node] = occ[:len(occ)-1]
			}
		}
		for i, ci := range inc.undoChanged {
			inc.ev.paths[ci] = inc.undoPaths[i]
			inc.ev.idx[ci] = inc.undoIdx[i]
			inc.ev.occ.addPath(ci, inc.ev.paths[ci])
		}
		for i, vi := range inc.undoTouched {
			inc.ev.acc[vi] = inc.undoNoise[i]
		}
	}
	inc.res = inc.undoRes
	inc.conflicts = inc.res.Conflicts
	inc.undoValid = false
	return inc.res, nil
}

// touch queues a victim's undo snapshot on first contact in a delta.
func (inc *Incremental) touch(vi int) {
	if inc.touchedMark[vi] {
		return
	}
	inc.touchedMark[vi] = true
	inc.undoTouched = append(inc.undoTouched, vi)
	inc.undoNoise = append(inc.undoNoise, inc.ev.acc[vi])
}
