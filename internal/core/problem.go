package core

import (
	"fmt"
	"math"

	"phonocmap/internal/analysis"
	"phonocmap/internal/cg"
	"phonocmap/internal/network"
)

// Objective selects which worst-case physical metric the design space
// exploration optimizes (Section II-D.1).
type Objective uint8

const (
	// MinimizeLoss optimizes the worst-case insertion loss ILdB_wc
	// (Eq. 3): find the mapping whose worst communication loses the
	// least power.
	MinimizeLoss Objective = iota
	// MaximizeSNR optimizes the worst-case signal-to-noise ratio SNR_wc
	// (Eq. 4): find the mapping whose noisiest communication has the
	// highest SNR. This objective is holistic — it depends on the
	// placement of every task, not only the endpoint pair.
	MaximizeSNR
	// MinimizeWeightedLoss optimizes the bandwidth-weighted average
	// insertion loss — an energy-oriented extension objective: heavy
	// flows matter proportionally more than light ones, unlike the
	// worst-case objectives of the paper.
	MinimizeWeightedLoss
)

// String returns "loss", "snr" or "wloss".
func (o Objective) String() string {
	switch o {
	case MaximizeSNR:
		return "snr"
	case MinimizeWeightedLoss:
		return "wloss"
	default:
		return "loss"
	}
}

// ParseObjective converts "loss", "snr" or "wloss" to an Objective.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "loss":
		return MinimizeLoss, nil
	case "snr":
		return MaximizeSNR, nil
	case "wloss":
		return MinimizeWeightedLoss, nil
	default:
		return 0, fmt.Errorf("core: unknown objective %q (have loss, snr, wloss)", s)
	}
}

// Score is the evaluation of one mapping. Cost is the canonical
// minimization value used by all search algorithms: |ILdB_wc| for the
// loss objective and -SNR_wc for the SNR objective; lower is always
// better. The raw worst-case metrics ride along for reporting.
type Score struct {
	Cost        float64
	WorstLossDB float64
	WorstSNRDB  float64
	// AvgLossDB is the bandwidth-weighted mean insertion loss, populated
	// for the MinimizeWeightedLoss objective (0 otherwise).
	AvgLossDB float64
	Conflicts int
}

// Better reports whether s is strictly better (lower cost) than o.
func (s Score) Better(o Score) bool { return s.Cost < o.Cost }

// Problem is one mapping-problem instance: an application CG, a concrete
// photonic NoC, and an objective. A Problem owns an analysis evaluator
// and scratch buffers, so it is not safe for concurrent use; Clone
// produces independent instances for parallel search.
type Problem struct {
	app     *cg.Graph
	nw      *network.Network
	obj     Objective
	ev      *analysis.Evaluator
	edges   []cg.Edge
	comms   []analysis.Communication
	weights []float64 // bandwidth weights, MinimizeWeightedLoss only
	// incident[task] lists the indices of the CG edges the task is an
	// endpoint of — the communications a task-level move changes. Built
	// once; the swap-session delta mapper depends on it.
	incident [][]int
	// seenTiles is the mapping-validation scratch of Evaluate and
	// Details, so a full evaluation allocates nothing.
	seenTiles []bool
}

// NewProblem validates Eq. 2 (the application must fit the topology) and
// binds the pieces together.
func NewProblem(app *cg.Graph, nw *network.Network, obj Objective) (*Problem, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if app.NumTasks() > nw.NumTiles() {
		return nil, fmt.Errorf("core: %s has %d tasks but %s has only %d tiles (Eq. 2)",
			app.Name(), app.NumTasks(), nw.String(), nw.NumTiles())
	}
	if app.NumEdges() == 0 {
		return nil, fmt.Errorf("core: %s has no communications to optimize", app.Name())
	}
	if obj != MinimizeLoss && obj != MaximizeSNR && obj != MinimizeWeightedLoss {
		return nil, fmt.Errorf("core: invalid objective %d", obj)
	}
	p := &Problem{
		app:       app,
		nw:        nw,
		obj:       obj,
		ev:        analysis.NewEvaluator(nw),
		edges:     app.Edges(),
		comms:     make([]analysis.Communication, app.NumEdges()),
		seenTiles: make([]bool, nw.NumTiles()),
	}
	p.incident = make([][]int, app.NumTasks())
	for i, e := range p.edges {
		p.incident[e.Src] = append(p.incident[e.Src], i)
		p.incident[e.Dst] = append(p.incident[e.Dst], i)
	}
	if obj == MinimizeWeightedLoss {
		p.weights = make([]float64, len(p.edges))
		for i, e := range p.edges {
			p.weights[i] = e.Bandwidth
		}
		sum := 0.0
		for _, w := range p.weights {
			sum += w
		}
		if sum <= 0 {
			return nil, fmt.Errorf("core: %s has zero total bandwidth; weighted objective undefined", app.Name())
		}
	}
	return p, nil
}

// Clone returns an independent Problem sharing the immutable app and
// network.
func (p *Problem) Clone() *Problem {
	cp, err := NewProblem(p.app, p.nw, p.obj)
	if err != nil {
		// The original validated; re-validation cannot fail.
		panic("core: clone of valid problem failed: " + err.Error())
	}
	return cp
}

// App returns the application graph.
func (p *Problem) App() *cg.Graph { return p.app }

// Network returns the photonic NoC instance.
func (p *Problem) Network() *network.Network { return p.nw }

// Objective returns the optimization objective.
func (p *Problem) Objective() Objective { return p.obj }

// NumTasks returns size(C).
func (p *Problem) NumTasks() int { return p.app.NumTasks() }

// NumTiles returns size(T).
func (p *Problem) NumTiles() int { return p.nw.NumTiles() }

// Evaluate scores a mapping: it expands every CG edge into the tile-pair
// communication induced by the mapping and runs the worst-case analysis.
// The mapping must satisfy Eqs. 5-6.
func (p *Problem) Evaluate(m Mapping) (Score, error) {
	if len(m) != p.app.NumTasks() {
		return Score{}, fmt.Errorf("core: mapping covers %d tasks, app has %d", len(m), p.app.NumTasks())
	}
	if err := m.validate(p.nw.NumTiles(), p.seenTiles); err != nil {
		return Score{}, err
	}
	for i, e := range p.edges {
		p.comms[i] = analysis.Communication{Src: m[e.Src], Dst: m[e.Dst]}
	}
	var res analysis.Result
	var err error
	if p.obj == MinimizeWeightedLoss {
		res, err = p.ev.EvaluateWeighted(p.comms, p.weights)
	} else {
		res, err = p.ev.Evaluate(p.comms)
	}
	if err != nil {
		return Score{}, err
	}
	return p.scoreFrom(res)
}

// scoreFrom converts an analysis result into the objective's Score — the
// single place the Cost semantics live, shared by the full and the
// incremental evaluation paths so they cannot drift apart.
func (p *Problem) scoreFrom(res analysis.Result) (Score, error) {
	s := Score{
		WorstLossDB: res.WorstLossDB,
		WorstSNRDB:  res.WorstSNRDB,
		Conflicts:   res.Conflicts,
	}
	switch p.obj {
	case MinimizeLoss:
		s.Cost = -res.WorstLossDB // |loss| in dB
	case MaximizeSNR:
		s.Cost = -res.WorstSNRDB // maximize SNR == minimize its negation
	case MinimizeWeightedLoss:
		s.AvgLossDB = res.AvgLossDB
		s.Cost = -res.AvgLossDB // |weighted mean loss| in dB
	}
	if math.IsNaN(s.Cost) {
		return Score{}, fmt.Errorf("core: evaluation produced NaN cost")
	}
	return s, nil
}

// Details returns the per-communication breakdown of a mapping, in CG
// edge order, for reporting and plotting.
func (p *Problem) Details(m Mapping) (analysis.Result, []analysis.Detail, error) {
	if err := m.validate(p.nw.NumTiles(), p.seenTiles); err != nil {
		return analysis.Result{}, nil, err
	}
	if len(m) != p.app.NumTasks() {
		return analysis.Result{}, nil, fmt.Errorf("core: mapping covers %d tasks, app has %d", len(m), p.app.NumTasks())
	}
	for i, e := range p.edges {
		p.comms[i] = analysis.Communication{Src: m[e.Src], Dst: m[e.Dst]}
	}
	return p.ev.Detailed(p.comms, nil)
}
