// Package robust quantifies how sensitive a mapping's worst-case metrics
// are to physical parameter variation and to link failures — the two
// practical perturbations a fabricated photonic NoC faces (thermal drift
// and process variation move the Table I coefficients; a broken
// waveguide removes a link).
//
// PhoNoCMap's analysis is deterministic for fixed coefficients; this
// package is the extension that tells a designer whether an optimized
// mapping's margin survives reality.
package robust

import (
	"fmt"
	"math"
	"math/rand"

	"phonocmap/internal/analysis"
	"phonocmap/internal/cg"
	"phonocmap/internal/core"
	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/stats"
	"phonocmap/internal/topo"
)

// VariationResult summarizes the Monte Carlo study of one mapping under
// coefficient variation.
type VariationResult struct {
	Samples int
	// Loss and SNR statistics over the perturbed parameter sets.
	Loss stats.Summary
	SNR  stats.Summary
	// WorstLossDB / WorstSNRDB are the most pessimistic draws — the
	// values a conservative designer budgets for.
	WorstLossDB float64
	WorstSNRDB  float64
}

// Variation runs a Monte Carlo study: it perturbs every Table I
// coefficient independently by a uniform relative factor in
// [-tolerance, +tolerance] (in dB magnitude), rebuilds the paths of the
// mapped communications, and re-evaluates the mapping. Typical
// tolerances: 0.1 to 0.3 (10–30 % coefficient uncertainty).
func Variation(
	t topo.Topology,
	arch *router.Architecture,
	algo route.Algorithm,
	base photonic.Params,
	app *cg.Graph,
	m core.Mapping,
	samples int,
	tolerance float64,
	seed int64,
) (VariationResult, error) {
	if samples < 1 {
		return VariationResult{}, fmt.Errorf("robust: need at least 1 sample, got %d", samples)
	}
	if tolerance < 0 || tolerance >= 1 {
		return VariationResult{}, fmt.Errorf("robust: tolerance %v out of [0, 1)", tolerance)
	}
	if err := base.Validate(); err != nil {
		return VariationResult{}, err
	}
	pairs, err := mappedPairs(t, app, m)
	if err != nil {
		return VariationResult{}, err
	}
	st := newStudy(pairs)
	rng := rand.New(rand.NewSource(seed))
	res := VariationResult{
		Samples:     samples,
		WorstLossDB: 0,
		WorstSNRDB:  math.Inf(1),
	}
	for i := 0; i < samples; i++ {
		p := perturb(rng, base, tolerance)
		nw, err := network.NewForPairs(t, arch, algo, p, pairs)
		if err != nil {
			return VariationResult{}, fmt.Errorf("robust: sample %d: %w", i, err)
		}
		s, err := st.evaluate(nw)
		if err != nil {
			return VariationResult{}, err
		}
		res.Loss.Add(s.WorstLossDB)
		res.SNR.Add(s.WorstSNRDB)
		if s.WorstLossDB < res.WorstLossDB {
			res.WorstLossDB = s.WorstLossDB
		}
		if s.WorstSNRDB < res.WorstSNRDB {
			res.WorstSNRDB = s.WorstSNRDB
		}
	}
	return res, nil
}

// mappedPairs returns the ordered tile pair of every CG edge under the
// mapping: the only paths the worst-case metrics (Eqs. 3-4) read. It
// validates the mapping first (Eqs. 5-6), since it indexes the mapping
// by task before any evaluation would.
func mappedPairs(t topo.Topology, app *cg.Graph, m core.Mapping) ([][2]topo.TileID, error) {
	if len(m) != app.NumTasks() {
		return nil, fmt.Errorf("robust: mapping covers %d tasks, app has %d", len(m), app.NumTasks())
	}
	if err := m.Validate(t.NumTiles()); err != nil {
		return nil, err
	}
	pairs := make([][2]topo.TileID, 0, app.NumEdges())
	for _, e := range app.Edges() {
		pairs = append(pairs, [2]topo.TileID{m[e.Src], m[e.Dst]})
	}
	return pairs, nil
}

// study scores one mapping's communications on network after network
// (perturbed samples, link cuts) through one evaluator, which keeps its
// occupancy buffers from one network to the next.
type study struct {
	ev    *analysis.Evaluator
	comms []analysis.Communication
}

func newStudy(pairs [][2]topo.TileID) *study {
	st := &study{comms: make([]analysis.Communication, len(pairs))}
	for i, p := range pairs {
		st.comms[i] = analysis.Communication{Src: p[0], Dst: p[1]}
	}
	return st
}

// evaluate returns the worst-case metrics of the communications on nw. A
// NaN worst SNR is an error, as it is for a mapping search.
func (st *study) evaluate(nw *network.Network) (analysis.Result, error) {
	if st.ev == nil {
		st.ev = analysis.NewEvaluator(nw)
	} else {
		st.ev.Rebind(nw)
	}
	res, err := st.ev.Evaluate(st.comms)
	if err != nil {
		return analysis.Result{}, err
	}
	if math.IsNaN(res.WorstSNRDB) {
		return analysis.Result{}, fmt.Errorf("robust: evaluation produced a NaN worst SNR")
	}
	return res, nil
}

// perturb scales every coefficient by an independent factor in
// [1-tol, 1+tol]. Coefficients are negative dB values, so scaling the
// magnitude keeps them valid.
func perturb(rng *rand.Rand, p photonic.Params, tol float64) photonic.Params {
	f := func(v float64) float64 {
		return v * (1 + tol*(2*rng.Float64()-1))
	}
	return photonic.Params{
		CrossingLoss:         f(p.CrossingLoss),
		PropagationLossPerCm: f(p.PropagationLossPerCm),
		PPSEOffLoss:          f(p.PPSEOffLoss),
		PPSEOnLoss:           f(p.PPSEOnLoss),
		CPSEOffLoss:          f(p.CPSEOffLoss),
		CPSEOnLoss:           f(p.CPSEOnLoss),
		CrossingCrosstalk:    f(p.CrossingCrosstalk),
		PSEOffCrosstalk:      f(p.PSEOffCrosstalk),
		PSEOnCrosstalk:       f(p.PSEOnCrosstalk),
	}
}

// FailureResult records the impact of one link-failure scenario.
type FailureResult struct {
	Failed      [2]topo.TileID
	WorstLossDB float64
	WorstSNRDB  float64
	// Unreachable is true when the failure disconnects some mapped
	// communication entirely (no detour exists).
	Unreachable bool
}

// LinkFailures evaluates the mapping under every single-link full cut
// (both lanes of each undirected link failed, one at a time), rerouting
// the mapped communications with BFS. A cut is unreachable when some
// mapped communication has no detour; a cut that disconnects only tiles
// no mapped communication uses is evaluated like any other. The router
// architecture must support the turns BFS produces; all-turn routers
// (cygnus, crossbar) qualify, Crux does not.
func LinkFailures(
	t topo.Topology,
	arch *router.Architecture,
	base photonic.Params,
	app *cg.Graph,
	m core.Mapping,
) ([]FailureResult, error) {
	if err := router.CheckTurns(arch, router.RequiredTurnsAll()); err != nil {
		return nil, fmt.Errorf("robust: link-failure analysis needs an all-turn router: %w", err)
	}
	pairs, err := mappedPairs(t, app, m)
	if err != nil {
		return nil, err
	}
	st := newStudy(pairs)
	seen := make(map[[2]topo.TileID]bool)
	var results []FailureResult
	for _, l := range t.Links() {
		key := [2]topo.TileID{l.From, l.To}
		if l.To < l.From {
			key = [2]topo.TileID{l.To, l.From}
		}
		if seen[key] {
			continue
		}
		seen[key] = true

		fr := FailureResult{Failed: key}
		deg, err := topo.Degrade(t, [][2]topo.TileID{{key[0], key[1]}, {key[1], key[0]}})
		if err != nil {
			return nil, fmt.Errorf("robust: cut %v: %w", key, err)
		}
		nw, err := network.NewForPairs(deg, arch, route.BFS{}, base, pairs)
		if err != nil {
			// Some mapped communication has no detour around the cut.
			fr.Unreachable = true
			results = append(results, fr)
			continue
		}
		s, err := st.evaluate(nw)
		if err != nil {
			return nil, err
		}
		fr.WorstLossDB = s.WorstLossDB
		fr.WorstSNRDB = s.WorstSNRDB
		results = append(results, fr)
	}
	return results, nil
}
