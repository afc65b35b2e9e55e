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
// Bit-for-bit contract: every Result an Incremental produces is
// identical — to the last bit — to Evaluator.Evaluate (or
// EvaluateWeighted) on the same communication slice. Both run the same
// pair kernel (kernel.go): per-victim noise is an integer sum of
// quantized pairwise contributions, and integer addition is
// order-independent and exactly invertible. A delta therefore subtracts
// the departing steps' contributions from each victim they shared
// elements with, adds the arriving ones, and lands on exactly the
// integer a full evaluation would compute. The conflict total moves by
// 2 per contending pair that leaves or arrives.
//
// Cost of ApplyDelta, with m communications, |Δ| changed ones and occ
// the mean element occupancy:
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
// An Incremental is not safe for concurrent use.
type Incremental struct {
	nw  *network.Network
	occ occupancy

	// Current communication set and its resolved paths.
	comms []Communication
	paths []*network.Path
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
	// accumulator was snapshotted for undo.
	changedMark []bool
	touchedMark []bool

	// Single-level undo log for the last ApplyDelta. After a rebuild,
	// undoNoise holds every accumulator and undoTouched is empty.
	undoValid   bool
	undoRebuilt bool
	undoChanged []int
	undoComms   []Communication
	undoPaths   []*network.Path
	undoTouched []int
	undoNoise   []int64
	undoRes     Result
}

// A delta changing more than rebuildNum/rebuildDen of the communications
// is applied by rebuilding. The fraction was set by timing both ways of
// applying deltas of 10 % to 100 % of the set, forward and back, on
// Crux/XY meshes (Intel Xeon, 2 vCPUs). On the 8×8 dense problem (220
// communications) the scans cost 0.87 ms per pair of deltas at 10 %,
// break even with the 2.2 ms of two rebuilds at 30 %, and cost 2.1× as
// much at 90 %, the share of the set a GA or memetic batch reseat
// changes. On a 4×4 mesh with 48 communications they break even between
// 30 % and 40 %.
const rebuildNum, rebuildDen = 3, 10

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
	if v := incPool.Get(); v != nil {
		inc := v.(*Incremental)
		inc.adopt(nw)
		return inc
	}
	inc := &Incremental{nw: nw}
	inc.occ.bind(nw)
	return inc
}

// adopt re-seats a pooled engine on a network. Buffers are kept when
// the element count matches (Init clears stale occupancy); otherwise the
// occupancy map is rebuilt at the new size.
func (inc *Incremental) adopt(nw *network.Network) {
	if inc.nw == nw {
		return
	}
	inc.nw = nw
	inc.occ.bind(nw)
}

// Release returns the engine's buffers to the package pool for reuse by
// a future NewIncremental. The engine must not be used afterwards; the
// caller gives up its reference.
func (inc *Incremental) Release() {
	inc.inited = false
	inc.undoValid = false
	inc.weights = nil
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
	for i, c := range comms {
		if c.Src < 0 || int(c.Src) >= n || c.Dst < 0 || int(c.Dst) >= n {
			return Result{}, fmt.Errorf("analysis: communication %d: tile out of range (%d->%d)", i, c.Src, c.Dst)
		}
		if c.Src == c.Dst {
			return Result{}, fmt.Errorf("analysis: communication %d: source and destination coincide at tile %d", i, c.Src)
		}
	}

	m := len(comms)
	inc.comms = append(inc.comms[:0], comms...)
	inc.weights = weights
	if cap(inc.paths) < m {
		inc.paths = make([]*network.Path, m)
		inc.noiseAcc = make([]int64, m)
		inc.changedMark = make([]bool, m)
		inc.touchedMark = make([]bool, m)
	}
	inc.paths = inc.paths[:m]
	inc.noiseAcc = inc.noiseAcc[:m]
	inc.changedMark = inc.changedMark[:m]
	inc.touchedMark = inc.touchedMark[:m]
	clear(inc.changedMark)
	clear(inc.touchedMark)
	for i, c := range inc.comms {
		inc.paths[i] = inc.nw.Path(c.Src, c.Dst)
	}
	inc.rebuild()
	inc.res = fold(inc.paths, inc.noiseAcc, inc.weights, inc.conflicts, nil)
	inc.inited = true
	inc.undoValid = false
	return inc.res, nil
}

// rebuild refills the occupancy map from the current paths and
// recomputes every accumulator with the whole-set pass.
func (inc *Incremental) rebuild() {
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
	for i, ci := range changed {
		bad := ""
		switch {
		case ci < 0 || ci >= len(inc.comms):
			bad = fmt.Sprintf("changed index %d out of range [0,%d)", ci, len(inc.comms))
		case inc.changedMark[ci]:
			bad = fmt.Sprintf("changed index %d listed twice", ci)
		case newComms[i].Src < 0 || int(newComms[i].Src) >= n ||
			newComms[i].Dst < 0 || int(newComms[i].Dst) >= n ||
			newComms[i].Src == newComms[i].Dst:
			bad = fmt.Sprintf("communication %d: invalid replacement (%d->%d)", ci, newComms[i].Src, newComms[i].Dst)
		}
		if bad != "" {
			for _, cj := range changed[:i] {
				inc.changedMark[cj] = false
			}
			return Result{}, fmt.Errorf("analysis: %s", bad)
		}
		inc.changedMark[ci] = true
	}

	// Open the undo log.
	inc.undoChanged = append(inc.undoChanged[:0], changed...)
	inc.undoComms = inc.undoComms[:0]
	inc.undoPaths = inc.undoPaths[:0]
	inc.undoTouched = inc.undoTouched[:0]
	inc.undoNoise = inc.undoNoise[:0]
	inc.undoRes = inc.res
	for _, ci := range changed {
		inc.undoComms = append(inc.undoComms, inc.comms[ci])
		inc.undoPaths = append(inc.undoPaths, inc.paths[ci])
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
	for i, ci := range changed {
		inc.comms[ci] = newComms[i]
		inc.paths[ci] = inc.nw.Path(newComms[i].Src, newComms[i].Dst)
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
			switch pairEffect[v.class][a.class&15] {
			case contends:
				inc.conflicts -= 2
			case leaks:
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
			switch pairEffect[v.class][a.class&15] {
			case contends:
				inc.conflicts += 2
				continue
			case leaks:
				inc.touch(int(v.comm))
				inc.noiseAcc[v.comm] += inc.occ.noise(v, &a)
			}
			if pairEffect[a.class][v.class&15] == leaks {
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
func (inc *Incremental) Undo() (Result, error) {
	if !inc.undoValid {
		return Result{}, fmt.Errorf("analysis: nothing to undo")
	}
	if inc.undoRebuilt {
		for i, ci := range inc.undoChanged {
			inc.comms[ci] = inc.undoComms[i]
			inc.paths[ci] = inc.undoPaths[i]
		}
		inc.occ.seat(inc.paths)
		copy(inc.noiseAcc, inc.undoNoise)
	} else {
		// Detach the new paths, re-attach the old ones, and restore the
		// snapshotted accumulators (no pair work: the stored values are
		// the previous values).
		for _, ci := range inc.undoChanged {
			inc.occ.dropPath(ci, inc.paths[ci])
		}
		for i, ci := range inc.undoChanged {
			inc.comms[ci] = inc.undoComms[i]
			inc.paths[ci] = inc.undoPaths[i]
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
