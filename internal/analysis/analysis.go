// Package analysis implements the physical-layer models of PhoNoCMap
// (Section II-C of the paper): worst-case insertion loss and worst-case
// signal-to-noise ratio of a set of simultaneously active communications
// on a photonic NoC.
//
// Insertion loss of one communication is the accumulated dB loss of its
// element-level path (network.Path.TotalLoss). Crosstalk noise received
// by a victim communication aggregates, over every element its path
// shares with any other active communication ("holistic view", Section
// II-D.1), the first-order leakage of the aggressor's power into the
// victim's output port:
//
//	PN += Pin * L_agg(source..element) * K(element) * L_victim(element..detector)
//
// with K chosen by the element kind and the victim-centric ring state
// (Eqs. 1b, 1d, 1f, 1h, 1j), no loss applied inside the generating
// element (Ki*Li = Ki), and no second-order noise (Ki*Kj = 0). The
// injected power Pin is identical for all communications and cancels in
// the SNR ratio, so all arithmetic is relative to Pin = 0 dB.
//
// Noise is accumulated per victim in fixed point (see noiseScale): each
// pairwise contribution is computed from per-step linear factors
// precomputed at network build and quantized to an integer before
// summing. Integer sums are order-independent and exactly invertible,
// which is what lets the incremental evaluator (Incremental) patch a
// victim's noise as aggressors come and go while staying bit-for-bit
// identical to a full evaluation. The quantum (2^-52 of the injected
// power) is ~9 orders of magnitude below any physically meaningful
// crosstalk level.
//
// Whole-set evaluation has one implementation, Evaluator's; the
// incremental engine (Incremental) is an Evaluator plus one undo log,
// the same on both engines below: the changed communications' old paths
// and a copy of all m accumulators, which Undo restores.
//
// One pair kernel serves every evaluation path (kernel.go). Each element
// keeps an occupancy list of the path steps traversing it, with what the
// kernel reads from a step inline: ports, kind and ring state packed in
// one class byte, and the two linear factors. One table indexed by two
// class bytes says whether a pair contends and whether each step leaks
// into the other; every pair loop reads it once per pair, adds the
// contention without a branch and branches only on the leak bits. A
// whole-set evaluation (Evaluator, Incremental.Init) goes element by
// element and visits each pair of co-located steps once, applying both
// directions; a delta (Incremental.ApplyDelta) visits only the pairs on
// the changed paths' elements, and its Undo touches no pair: it pops the
// new paths' entries off the ends of their lists and re-appends the old
// ones. Since the two classes decide a pair's effect, the whole-set pass
// groups a list of at least runMin steps by class, with a counting sort
// into a scratch buffer that leaves the list as it was, and counts it by
// class runs: contention in bulk (a run of k steps counts k(k−1)
// conflicts), pairs that neither leak nor contend not at all, and only
// leaking pairs one by one. That rests on two properties network builds
// guarantee: no path crosses an element twice, and every step crossing
// an element has that element's kind.
//
// Networks of up to core's tile cap also have a second engine, the path
// table (table.go): for every pair of the network's tile-pair paths, the
// noise each injects into the other summed over their shared elements,
// and the pair's conflict count, filled once per network, path by path,
// from a seating of every path with the kernel's own pair terms (one
// fill for both layouts). A whole-set evaluation then reads the table for
// each pair of the set's communications (a compact table in path-index
// order, so each row streams), a delta about 2·|Δ|·m times on the
// compact layout, reading each changed pair once for both directions,
// and 3·|Δ|·m on the dense one, and an undo restores the logged
// accumulators; integer sums keep every result bit-identical to the
// kernel's. TableOf builds a network's table at most once, on first use,
// and the network keeps it; NewTableEvaluator and NewTableIncremental
// score from it, and Bytes reads its size off the built table. A table
// of up to 16 tiles is dense, a term per ordered pair; above that it is
// compact, a uint16 code per unordered pair into a dictionary of the
// network's distinct terms, which keeps a 6×6 table near 2 MB instead of
// 15 MB. The layout is chosen by size alone, since the dense one reads
// faster where it fits in cache and the compact one is what lets larger
// tables stay resident (see PathTable). Evaluations under a channel
// assignment (EvaluateChanneled) and the robustness and link-failure
// studies always use the kernel.
//
// Both engines fold the per-victim noise into a Result the same way
// (fold), in communication order. Without a per-victim breakdown, fold
// takes a victim's log10 only while it can still be the worst SNR: a
// victim's linear noise-to-signal ratio, its noise times the path's
// precomputed 10^(−TotalLoss/10), is compared with the largest one so
// far, and one more than a relative 1e-9 below it is skipped, a margin
// four orders of magnitude above the rounding of both the ratio and the
// dB SNR (snrSlack), so the Result stays bit-identical.
package analysis

import (
	"fmt"
	"math"

	"phonocmap/internal/network"
	"phonocmap/internal/topo"
)

// Communication is one active source-destination tile pair.
type Communication struct {
	Src, Dst topo.TileID
}

// Result aggregates the worst-case metrics of one evaluation.
type Result struct {
	// WorstLossDB is ILdB_wc: the most negative end-to-end insertion
	// loss over all communications (Eq. 3).
	WorstLossDB float64
	// WorstSNRDB is SNR_wc: the smallest SNR over all communications
	// (Eq. 4). +Inf when no communication receives any crosstalk.
	WorstSNRDB float64
	// WorstLossIdx / WorstSNRIdx are the indices (into the evaluated
	// communication slice) of the critical communications.
	WorstLossIdx int
	WorstSNRIdx  int
	// Conflicts counts element sharings that were skipped because both
	// signals entered on the same waveguide — wavelength contention
	// rather than crosstalk. Each sharing is counted from each victim's
	// perspective, so one contending pair contributes 2. Large values
	// flag mappings that serialize traffic.
	Conflicts int
	// AvgLossDB is the (optionally weighted) mean insertion loss over
	// all communications — the bandwidth-weighted energy proxy used by
	// the extension objective. Weighted only when the evaluation was
	// performed through EvaluateWeighted.
	AvgLossDB float64
}

// Detail is the per-communication breakdown produced by Detailed.
type Detail struct {
	// LossDB is the end-to-end insertion loss (<= 0).
	LossDB float64
	// NoiseDB is the total first-order crosstalk power at the detector
	// relative to the injected power; -Inf when no noise is received.
	NoiseDB float64
	// SNRDB is LossDB - NoiseDB (signal over noise at the detector);
	// +Inf when no noise is received.
	SNRDB float64
}

// noiseScale is the fixed-point quantum of crosstalk accumulation: one
// unit is 2^-52 of the injected power. Contributions are < 1 (leak
// coefficients and losses are negative dB), so a quantized contribution
// fits comfortably in an int64 with headroom for thousands of summands.
const noiseScale = 1 << 52

// fixedNoise quantizes one linear-domain contribution (truncation toward
// zero — deterministic, shared by every evaluation path).
func fixedNoise(x float64) int64 { return int64(x * noiseScale) }

// noPath reports a communication on a pair the network holds no path
// for: one that a pair-restricted build (network.NewForPairs) left out.
func noPath(i int, c Communication) error {
	return fmt.Errorf("analysis: communication %d: the network holds no path %d->%d", i, c.Src, c.Dst)
}

// noiseFromFixed converts an accumulated fixed-point noise back to the
// linear domain.
func noiseFromFixed(a int64) float64 { return float64(a) / noiseScale }

// Evaluator computes worst-case loss and SNR for communication sets on
// one network. It reuses internal buffers across calls and is therefore
// not safe for concurrent use; parallel searches give each worker an
// evaluator of its own.
type Evaluator struct {
	nw *network.Network
	// tab, when non-nil, is nw's path table: Evaluate, Detailed and
	// EvaluateWeighted score from it, EvaluateChanneled keeps the kernel.
	tab   *PathTable
	occ   occupancy
	paths []*network.Path
	idx   []int32 // each communication's path index (table engine)
	acc   []int64 // per-communication fixed-point noise
	// byPath, byDst and tileCount are a compact table's scratch: the set
	// sorted by path index, the destination pass of that sort, and its
	// n+1 counters (sortByPath).
	byPath, byDst []pathComm
	tileCount     []int32
	// weights, when non-nil, turn AvgLossDB into a weighted mean (set
	// transiently by EvaluateWeighted, and by Incremental.InitWeighted
	// for the seated set).
	weights []float64
}

// NewEvaluator returns an evaluator for the given network, scoring with
// the pair kernel.
func NewEvaluator(nw *network.Network) *Evaluator {
	e := &Evaluator{nw: nw}
	e.occ.bind(nw)
	return e
}

// NewTableEvaluator returns an evaluator for the table's network that
// scores from the table (see Evaluator.tab). It binds no occupancy map
// until a kernel evaluation (EvaluateChanneled) needs one.
func NewTableEvaluator(t *PathTable) *Evaluator {
	return &Evaluator{nw: t.nw, tab: t}
}

// Rebind points the evaluator at another network, such as one built with
// other parameters or around a failed link, keeping its buffers when the
// element count matches. Later evaluations run on nw, with the pair
// kernel.
func (e *Evaluator) Rebind(nw *network.Network) {
	e.nw = nw
	e.tab = nil
	e.occ.bind(nw)
}

// Network returns the evaluated network.
func (e *Evaluator) Network() *network.Network { return e.nw }

// Evaluate computes the worst-case metrics of the communication set. All
// communications are considered simultaneously active, the paper's
// holistic worst case. Evaluate allocates nothing on the steady state.
func (e *Evaluator) Evaluate(comms []Communication) (Result, error) {
	return e.run(comms, nil, nil)
}

// Detailed is Evaluate plus a per-communication breakdown appended to dst
// (one Detail per communication, in order).
func (e *Evaluator) Detailed(comms []Communication, dst []Detail) (Result, []Detail, error) {
	if cap(dst) < len(comms) {
		dst = make([]Detail, len(comms))
	} else {
		dst = dst[:len(comms)]
	}
	res, err := e.run(comms, dst, nil)
	return res, dst, err
}

// EvaluateWeighted is Evaluate with per-communication weights (typically
// CG edge bandwidths): Result.AvgLossDB becomes the weight-averaged
// insertion loss, the cost proxy of bandwidth-aware mapping objectives.
// Weights must be finite and non-negative, with a positive sum.
func (e *Evaluator) EvaluateWeighted(comms []Communication, weights []float64) (Result, error) {
	if err := checkWeights(len(comms), weights); err != nil {
		return Result{}, err
	}
	e.weights = weights
	res, err := e.run(comms, nil, nil)
	e.weights = nil
	return res, err
}

// checkWeights checks one weight per communication, each finite and
// non-negative, with a positive sum.
func checkWeights(m int, weights []float64) error {
	if len(weights) != m {
		return fmt.Errorf("analysis: %d weights for %d communications", len(weights), m)
	}
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("analysis: invalid weight %v at %d", w, i)
		}
		sum += w
	}
	if sum <= 0 {
		return fmt.Errorf("analysis: weights sum to %v, need > 0", sum)
	}
	return nil
}

// EvaluateChanneled is Evaluate under wavelength-division multiplexing:
// channel[i] is the wavelength assigned to communication i, and only
// same-wavelength pairs exchange first-order crosstalk or contend —
// different wavelengths coexist on a waveguide by construction. A nil
// channel slice degenerates to the single-wavelength Evaluate.
func (e *Evaluator) EvaluateChanneled(comms []Communication, channel []int) (Result, error) {
	if channel != nil && len(channel) != len(comms) {
		return Result{}, fmt.Errorf("analysis: %d channels for %d communications", len(channel), len(comms))
	}
	return e.run(comms, nil, channel)
}

// run is the one whole-set evaluation: resolve the set, score it, fold
// the accumulators into a Result.
func (e *Evaluator) run(comms []Communication, details []Detail, channel []int) (Result, error) {
	if err := e.resolve(comms); err != nil {
		return Result{}, err
	}
	conflicts := e.score(channel)
	return fold(e.paths, e.acc, e.weights, conflicts, details), nil
}

// resolve checks every communication and looks up its path and path
// index in one pass, sizing paths, idx and acc to the set. On an error
// they hold a partly resolved set.
func (e *Evaluator) resolve(comms []Communication) error {
	if len(comms) == 0 {
		return fmt.Errorf("analysis: no communications to evaluate")
	}
	n := e.nw.NumTiles()
	m := len(comms)
	if cap(e.paths) < m {
		e.paths = make([]*network.Path, m)
		e.idx = make([]int32, m)
		e.acc = make([]int64, m)
		e.byPath = make([]pathComm, m)
		e.byDst = make([]pathComm, m)
	}
	e.paths = e.paths[:m]
	e.idx = e.idx[:m]
	e.acc = e.acc[:m]
	e.byPath = e.byPath[:m]
	e.byDst = e.byDst[:m]
	if len(e.tileCount) != n+1 {
		e.tileCount = make([]int32, n+1)
	}
	for i, c := range comms {
		if c.Src < 0 || int(c.Src) >= n || c.Dst < 0 || int(c.Dst) >= n {
			return fmt.Errorf("analysis: communication %d: tile out of range (%d->%d)", i, c.Src, c.Dst)
		}
		if c.Src == c.Dst {
			return fmt.Errorf("analysis: communication %d: source and destination coincide at tile %d", i, c.Src)
		}
		if e.paths[i] = e.nw.Path(c.Src, c.Dst); e.paths[i] == nil {
			return noPath(i, c)
		}
		e.idx[i] = int32(int(c.Src)*n + int(c.Dst))
	}
	return nil
}

// score is the whole-set pass over the resolved set: it fills acc and
// returns the set's conflicts, from the path table when there is one and
// no channel assignment (a compact table's sum reads the set sorted by
// path index), otherwise by seating the occupancy map, bound on first
// use, and running the pair kernel.
func (e *Evaluator) score(channel []int) int {
	if t := e.tab; t != nil && channel == nil {
		if t.codes == nil {
			return t.sumDense(e.idx, e.acc)
		}
		sortByPath(e.idx, e.nw.NumTiles(), e.byPath, e.byDst, e.tileCount)
		return t.sumCompact(e.byPath, e.acc)
	}
	if e.occ.lists == nil {
		e.occ.bind(e.nw)
	}
	e.occ.seat(e.paths)
	clear(e.acc)
	return e.occ.pass(e.acc, channel)
}
