package analysis

import (
	"fmt"
	"math"
	"sync"

	"phonocmap/internal/network"
)

// Incremental is the delta-evaluation engine behind swap-move search: it
// keeps the element-occupancy map and the per-victim noise accumulators
// of one communication set alive across calls, so that changing a few
// communications (the edges incident to two swapped tiles) costs only
// the work local to the changed paths instead of a full re-evaluation.
//
// An Incremental scores with one of two engines, chosen when it is made:
// the pair kernel (NewIncremental), described below, or the network's
// path table (NewTableIncremental), where a delta costs about 3·|Δ|·m
// table reads (PathTable.delta), above tableRecomputeNum/tableRecomputeDen
// of m changed a fresh m² sum instead, and Undo restores an O(m)
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
//   - above rebuildNum/rebuildDen of m changed, a rebuild instead: the
//     occupancy map is refilled and the whole-set pass runs, which
//     visits every pair once, where the scans would visit a pair once
//     per changed side and scan (see rebuildNum for the measurement).
//   - O(m) to fold the cached per-victim values into the worst-case
//     trackers and the (weighted) mean: float compares plus one log10
//     per noisy victim, no pairwise work.
//
// Undo does no pair work. After scans it costs O(|path|) per changed
// communication plus one store per touched victim: it pops the new
// paths' entries off the ends of their lists and re-appends the old
// ones. After a rebuild it re-seats the map, O(m·|path|).
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	nw *network.Network
	// tab, when non-nil, is nw's path table, and the engine scores from
	// it instead of the occupancy map (see tableRecomputeNum).
	tab *PathTable
	occ occupancy
	// occNet is the network occ is bound to, nil before the first bind.
	occNet *network.Network

	// Current communication set, its resolved paths and their path
	// indices (src*n+dst).
	comms []Communication
	paths []*network.Path
	idx   []int32
	// weights, when non-nil, turn AvgLossDB into a weighted mean (set by
	// InitWeighted, constant across deltas). weightsBuf is the reusable
	// backing store weights points into, so re-Init on a pooled engine
	// copies instead of allocating.
	weights    []float64
	weightsBuf []float64

	// noiseAcc is each communication's fixed-point noise (see
	// noiseScale); conflicts is the set's contention total.
	noiseAcc  []int64
	conflicts int

	res    Result
	inited bool

	// Per-delta scratch: changedMark flags the communications being
	// replaced (catches duplicates); touchedMark flags every victim whose
	// accumulator was snapshotted for undo; resolved holds the paths of
	// the incoming communications, looked up while they are validated.
	changedMark []bool
	touchedMark []bool
	resolved    []*network.Path

	// Single-level undo log for the last ApplyDelta. After a rebuild or
	// any delta on the table, undoNoise holds every accumulator and
	// undoTouched is empty.
	undoValid   bool
	undoRebuilt bool
	undoChanged []int
	undoComms   []Communication
	undoPaths   []*network.Path
	undoIdx     []int32
	undoTouched []int
	undoNoise   []int64
	undoRes     Result
}

// A delta changing more than rebuildNum/rebuildDen of the communications
// is applied by rebuilding. Networks of at most core's table cap (25
// tiles) score from a path table, so the kernel's deltas run only on
// larger networks. The fraction was set by timing both ways on the
// deltas swap sessions make, the edges incident to the moved tasks: 120
// distinct swaps and 120 multi-task reseats per instance, each call
// timed (median of 7 interleaved rounds, Intel Xeon, 2 vCPUs), committed
// and undone, on DVOPD (44 communications) on a 6×6 Crux/XY mesh and
// torus and on the 8×8 dense problem (56 tasks, 220 communications,
// Crux/XY mesh). A committed delta breaks even at about 15 % of the set
// on the dense problem and 35 % on DVOPD; an undone one at 15–20 % and
// 30–50 %, since Undo re-seats the map after a rebuild but costs
// O(|path|) after scans. Summed over the three instances, the loss
// against picking the cheaper way per delta was lowest at a quarter in
// both of two runs, for committed deltas (2–3 %; 3–4 % at 1/5, 5–6 % at
// 3/10, 6–7 % at 1/3) and for undone ones (3–7 %; 4–8 % at 3/10 and at
// 1/3, 6–10 % at 1/5).
const rebuildNum, rebuildDen = 1, 4

// On a path table, a delta changing more than
// tableRecomputeNum/tableRecomputeDen of the communications is applied by
// summing the whole table again (PathTable.sum, m² reads) instead of
// patching (PathTable.delta, about 3·|Δ|·m reads). Both ways snapshot
// and fold all m victims, which bounds what patching saves: timed like
// rebuildNum on PIP (3×3), MWD, VOPD (mesh and torus) and 263dec (4×4),
// Wavelet (5×5 mesh and torus) and the 4×4 mesh with 48
// communications, a patch of 5–10 % of the set costs 0.44–0.84× a sum,
// and patches break even at 25–45 %. Summed over the eight instances,
// the loss against picking the cheaper way per delta was 4–10 % at a
// third and 3–10 % at 2/5 (8–17 % at 1/4, 12–16 % at 1/2; four runs,
// committed and undone alike, since Undo restores the same snapshot
// either way). The two tied, and a third was kept.
const tableRecomputeNum, tableRecomputeDen = 1, 3

// incPool recycles released engines: the occupancy map and the
// per-victim accumulator slices dominate the cost of standing up an
// Incremental, and swap-session pools, sweep cells and service jobs
// create one engine per session. Pooled engines are re-adopted onto
// whatever network the next NewIncremental asks for.
var incPool sync.Pool

// NewIncremental returns an incremental evaluator for the network,
// reusing a released engine's buffers when one is pooled. Call Init
// before anything else.
func NewIncremental(nw *network.Network) *Incremental {
	return newIncremental(nw, nil)
}

// NewTableIncremental is NewIncremental on the table's network, scoring
// from the table.
func NewTableIncremental(t *PathTable) *Incremental {
	return newIncremental(t.nw, t)
}

func newIncremental(nw *network.Network, tab *PathTable) *Incremental {
	var inc *Incremental
	if v := incPool.Get(); v != nil {
		inc = v.(*Incremental)
	} else {
		inc = &Incremental{}
	}
	inc.adopt(nw, tab)
	return inc
}

// adopt re-seats a pooled engine on a network. The kernel's occupancy
// map is bound only when the engine scores with the kernel; its buffers
// are kept when the element count matches (Init clears stale
// occupancy), otherwise it is rebuilt at the new size.
func (inc *Incremental) adopt(nw *network.Network, tab *PathTable) {
	inc.nw = nw
	inc.tab = tab
	if tab == nil && inc.occNet != nw {
		inc.occNet = nw
		inc.occ.bind(nw)
	}
}

// Release returns the engine's buffers to the package pool for reuse by
// a future NewIncremental. The engine must not be used afterwards; the
// caller gives up its reference.
func (inc *Incremental) Release() {
	inc.inited = false
	inc.undoValid = false
	inc.weights = nil
	inc.tab = nil
	incPool.Put(inc)
}

// Network returns the evaluated network.
func (inc *Incremental) Network() *network.Network { return inc.nw }

// Init seats the engine on a communication set, evaluating it in full.
// The slice is copied; later deltas do not touch the caller's data.
func (inc *Incremental) Init(comms []Communication) (Result, error) {
	return inc.init(comms, nil)
}

// InitWeighted is Init with per-communication weights (see
// Evaluator.EvaluateWeighted): AvgLossDB becomes the weight-averaged
// insertion loss. The weights persist across deltas — they belong to the
// CG edges, whose order never changes.
func (inc *Incremental) InitWeighted(comms []Communication, weights []float64) (Result, error) {
	if len(weights) != len(comms) {
		return Result{}, fmt.Errorf("analysis: %d weights for %d communications", len(weights), len(comms))
	}
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return Result{}, fmt.Errorf("analysis: invalid weight %v at %d", w, i)
		}
		sum += w
	}
	if sum <= 0 {
		return Result{}, fmt.Errorf("analysis: weights sum to %v, need > 0", sum)
	}
	inc.weightsBuf = append(inc.weightsBuf[:0], weights...)
	return inc.init(comms, inc.weightsBuf)
}

func (inc *Incremental) init(comms []Communication, weights []float64) (Result, error) {
	if len(comms) == 0 {
		return Result{}, fmt.Errorf("analysis: no communications to evaluate")
	}
	n := inc.nw.NumTiles()
	inc.resolved = inc.resolved[:0]
	for i, c := range comms {
		if c.Src < 0 || int(c.Src) >= n || c.Dst < 0 || int(c.Dst) >= n {
			return Result{}, fmt.Errorf("analysis: communication %d: tile out of range (%d->%d)", i, c.Src, c.Dst)
		}
		if c.Src == c.Dst {
			return Result{}, fmt.Errorf("analysis: communication %d: source and destination coincide at tile %d", i, c.Src)
		}
		p := inc.nw.Path(c.Src, c.Dst)
		if p == nil {
			return Result{}, noPath(i, c)
		}
		inc.resolved = append(inc.resolved, p)
	}

	m := len(comms)
	inc.comms = append(inc.comms[:0], comms...)
	inc.weights = weights
	if cap(inc.paths) < m {
		inc.paths = make([]*network.Path, m)
		inc.idx = make([]int32, m)
		inc.noiseAcc = make([]int64, m)
		inc.changedMark = make([]bool, m)
		inc.touchedMark = make([]bool, m)
	}
	inc.paths = inc.paths[:m]
	inc.idx = inc.idx[:m]
	inc.noiseAcc = inc.noiseAcc[:m]
	inc.changedMark = inc.changedMark[:m]
	inc.touchedMark = inc.touchedMark[:m]
	clear(inc.changedMark)
	clear(inc.touchedMark)
	copy(inc.paths, inc.resolved)
	for i, c := range comms {
		inc.idx[i] = int32(int(c.Src)*n + int(c.Dst))
	}
	inc.rebuild()
	inc.res = fold(inc.paths, inc.noiseAcc, inc.weights, inc.conflicts, nil)
	inc.inited = true
	inc.undoValid = false
	return inc.res, nil
}

// rebuild recomputes every accumulator from the current set: from the
// table, or by refilling the occupancy map and running the whole-set
// pass.
func (inc *Incremental) rebuild() {
	if inc.tab != nil {
		inc.conflicts = inc.tab.sum(inc.idx, inc.noiseAcc)
		return
	}
	inc.occ.seat(inc.paths)
	clear(inc.noiseAcc)
	inc.conflicts = inc.occ.pass(inc.noiseAcc, nil)
}

// Result returns the metrics of the current communication set.
func (inc *Incremental) Result() Result { return inc.res }

// NumComms returns the size of the seated communication set.
func (inc *Incremental) NumComms() int { return len(inc.comms) }

// ApplyDelta replaces comms[changed[i]] with newComms[i] and returns the
// metrics of the updated set, patching only the victims that share
// elements with the changed communications, or rebuilding when more than
// rebuildNum/rebuildDen of the set changes (see the type docs for the
// cost). The previous state is retained for one Undo.
func (inc *Incremental) ApplyDelta(changed []int, newComms []Communication) (Result, error) {
	if !inc.inited {
		return Result{}, fmt.Errorf("analysis: ApplyDelta before Init")
	}
	if len(changed) != len(newComms) {
		return Result{}, fmt.Errorf("analysis: %d indices for %d communications", len(changed), len(newComms))
	}
	n := inc.nw.NumTiles()
	inc.resolved = inc.resolved[:0]
	for i, ci := range changed {
		var err error
		switch c := newComms[i]; {
		case ci < 0 || ci >= len(inc.comms):
			err = fmt.Errorf("analysis: changed index %d out of range [0,%d)", ci, len(inc.comms))
		case inc.changedMark[ci]:
			err = fmt.Errorf("analysis: changed index %d listed twice", ci)
		case c.Src < 0 || int(c.Src) >= n || c.Dst < 0 || int(c.Dst) >= n || c.Src == c.Dst:
			err = fmt.Errorf("analysis: communication %d: invalid replacement (%d->%d)", ci, c.Src, c.Dst)
		default:
			p := inc.nw.Path(c.Src, c.Dst)
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
	inc.undoComms = inc.undoComms[:0]
	inc.undoPaths = inc.undoPaths[:0]
	inc.undoTouched = inc.undoTouched[:0]
	inc.undoNoise = inc.undoNoise[:0]
	inc.undoIdx = inc.undoIdx[:0]
	inc.undoRes = inc.res
	for _, ci := range changed {
		inc.undoComms = append(inc.undoComms, inc.comms[ci])
		inc.undoPaths = append(inc.undoPaths, inc.paths[ci])
		inc.undoIdx = append(inc.undoIdx, inc.idx[ci])
	}

	if inc.tab != nil {
		// An O(m) snapshot, then a patch or a fresh sum.
		inc.undoRebuilt = false
		inc.undoNoise = append(inc.undoNoise, inc.noiseAcc...)
		inc.reroute(changed, newComms)
		if len(changed)*tableRecomputeDen > len(inc.comms)*tableRecomputeNum {
			inc.conflicts = inc.tab.sum(inc.idx, inc.noiseAcc)
		} else {
			inc.conflicts += inc.tab.delta(inc.idx, inc.noiseAcc, changed, inc.undoIdx, inc.changedMark)
		}
		for _, ci := range changed {
			inc.changedMark[ci] = false
		}
		inc.res = fold(inc.paths, inc.noiseAcc, inc.weights, inc.conflicts, nil)
		inc.undoValid = true
		return inc.res, nil
	}
	for _, ci := range changed {
		inc.changedMark[ci] = false
	}
	inc.undoRebuilt = len(changed)*rebuildDen > len(inc.comms)*rebuildNum
	if inc.undoRebuilt {
		inc.undoNoise = append(inc.undoNoise, inc.noiseAcc...)
		inc.reroute(changed, newComms)
		inc.rebuild()
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
			inc.noiseAcc[ci] = 0
		}
		for _, ci := range changed {
			inc.attach(ci)
		}
		for _, vi := range inc.undoTouched {
			inc.touchedMark[vi] = false
		}
	}
	inc.res = fold(inc.paths, inc.noiseAcc, inc.weights, inc.conflicts, nil)
	inc.undoValid = true
	return inc.res, nil
}

// reroute points the changed communications at their new paths.
func (inc *Incremental) reroute(changed []int, newComms []Communication) {
	n := inc.nw.NumTiles()
	for i, ci := range changed {
		c := newComms[i]
		inc.comms[ci] = c
		inc.paths[ci] = inc.resolved[i]
		inc.idx[ci] = int32(int(c.Src)*n + int(c.Dst))
	}
}

// detach is the first scan of a delta: it removes communication c's
// entries from the elements of its current path and, in the same pass,
// takes back what each of those steps contributed to the other
// occupants. What it takes from another changed communication is
// discarded when that one's accumulator restarts from zero.
func (inc *Incremental) detach(c int) {
	p := inc.paths[c]
	for si := range p.Steps {
		s := &p.Steps[si]
		a := entryOf(c, s)
		occ := inc.occ.lists[s.Node]
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
				inc.noiseAcc[v.comm] -= inc.occ.noise(v, &a)
			}
			if w != r {
				occ[w] = *v
			}
			w++
		}
		inc.occ.lists[s.Node] = occ[:w]
	}
}

// attach is the second scan of a delta: it enters communication c's new
// path step by step, adding each step's contribution to the occupants it
// meets and, in the same pass, theirs to c's own accumulator.
// Occupants include the changed communications attached before c, so
// each changed-changed pair is handled here exactly once.
func (inc *Incremental) attach(c int) {
	p := inc.paths[c]
	var own int64
	for si := range p.Steps {
		s := &p.Steps[si]
		a := entryOf(c, s)
		occ := inc.occ.lists[s.Node]
		for r := range occ {
			v := &occ[r]
			if v.comm == a.comm {
				continue
			}
			t := pairOf(v.class, a.class)
			inc.conflicts += int(t & contends)
			if t&leaksIntoFirst != 0 {
				inc.touch(int(v.comm))
				inc.noiseAcc[v.comm] += inc.occ.noise(v, &a)
			}
			if t&leaksIntoSecond != 0 {
				own += inc.occ.noise(&a, v)
			}
		}
		inc.occ.add(s.Node, a)
	}
	inc.noiseAcc[c] = own
}

// Undo reverts the last ApplyDelta, restoring paths, occupancy and every
// cached accumulator to their exact previous values. Only one level of
// undo is kept; a second Undo (or an Undo after Init) fails.
//
// After scans, Undo rests on a tail invariant: the entries attach
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
	if inc.tab != nil || inc.undoRebuilt {
		// Restore the snapshot of every accumulator; the kernel also
		// re-seats its map.
		for i, ci := range inc.undoChanged {
			inc.comms[ci] = inc.undoComms[i]
			inc.paths[ci] = inc.undoPaths[i]
			inc.idx[ci] = inc.undoIdx[i]
		}
		if inc.tab == nil {
			inc.occ.seat(inc.paths)
		}
		copy(inc.noiseAcc, inc.undoNoise)
	} else {
		// Pop the new paths' entries, re-append the old ones, and restore
		// the snapshotted accumulators (no pair work: the stored values
		// are the previous values).
		for _, ci := range inc.undoChanged {
			p := inc.paths[ci]
			for si := range p.Steps {
				occ := inc.occ.lists[p.Steps[si].Node]
				inc.occ.lists[p.Steps[si].Node] = occ[:len(occ)-1]
			}
		}
		for i, ci := range inc.undoChanged {
			inc.comms[ci] = inc.undoComms[i]
			inc.paths[ci] = inc.undoPaths[i]
			inc.idx[ci] = inc.undoIdx[i]
			inc.occ.addPath(ci, inc.paths[ci])
		}
		for i, vi := range inc.undoTouched {
			inc.noiseAcc[vi] = inc.undoNoise[i]
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
	inc.undoNoise = append(inc.undoNoise, inc.noiseAcc[vi])
}
