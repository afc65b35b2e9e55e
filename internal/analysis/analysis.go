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
// ones. Since the two classes decide
// a pair's effect, the whole-set pass sorts a list of at least runMin
// steps by class and counts it by class runs: contention in bulk (a run
// of k steps counts k(k−1) conflicts), pairs that neither leak nor
// contend not at all, and only leaking pairs one by one. That rests on no
// path crossing an element twice, which network builds guarantee.
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
// not safe for concurrent use; use Clone to obtain independent evaluators
// for parallel search.
type Evaluator struct {
	nw    *network.Network
	occ   occupancy
	paths []*network.Path
	acc   []int64 // per-communication fixed-point noise
	// weights, when non-nil, turn AvgLossDB into a weighted mean (set
	// transiently by EvaluateWeighted).
	weights []float64
}

// NewEvaluator returns an evaluator for the given network.
func NewEvaluator(nw *network.Network) *Evaluator {
	e := &Evaluator{nw: nw}
	e.occ.bind(nw)
	return e
}

// Clone returns an independent evaluator sharing the (immutable) network.
func (e *Evaluator) Clone() *Evaluator { return NewEvaluator(e.nw) }

// Rebind points the evaluator at another network, such as one built with
// other parameters or around a failed link, keeping its buffers when the
// element count matches. Later evaluations run on nw.
func (e *Evaluator) Rebind(nw *network.Network) {
	e.nw = nw
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
// Weights must be non-negative with a positive sum.
func (e *Evaluator) EvaluateWeighted(comms []Communication, weights []float64) (Result, error) {
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
	e.weights = weights
	res, err := e.run(comms, nil, nil)
	e.weights = nil
	return res, err
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

func (e *Evaluator) run(comms []Communication, details []Detail, channel []int) (Result, error) {
	if len(comms) == 0 {
		return Result{}, fmt.Errorf("analysis: no communications to evaluate")
	}
	n := e.nw.NumTiles()
	m := len(comms)
	if cap(e.paths) < m {
		e.paths = make([]*network.Path, m)
		e.acc = make([]int64, m)
	}
	e.paths = e.paths[:m]
	for i, c := range comms {
		if c.Src < 0 || int(c.Src) >= n || c.Dst < 0 || int(c.Dst) >= n {
			return Result{}, fmt.Errorf("analysis: communication %d: tile out of range (%d->%d)", i, c.Src, c.Dst)
		}
		if c.Src == c.Dst {
			return Result{}, fmt.Errorf("analysis: communication %d: source and destination coincide at tile %d", i, c.Src)
		}
		if e.paths[i] = e.nw.Path(c.Src, c.Dst); e.paths[i] == nil {
			return Result{}, noPath(i, c)
		}
	}

	e.occ.seat(e.paths)
	acc := e.acc[:m]
	clear(acc)
	conflicts := e.occ.pass(acc, channel)
	return fold(e.paths, acc, e.weights, conflicts, details), nil
}
