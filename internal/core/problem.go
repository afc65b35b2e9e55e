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
	app *cg.Graph
	nw  *network.Network
	obj Objective
	// ev is the full evaluator, made on the first Evaluate or Details
	// (see evaluator).
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

// tableMaxTiles is the largest network, in tiles, whose problems score
// from a path table (analysis.TableOf) instead of the pair kernel: every
// Table II network, DVOPD's 6×6 included. Up to 16 tiles a table is
// dense, 9 bytes per ordered pair of path indices: 59 KB and 0.6 MB on
// the 3×3 and 4×4 networks, built in 0.05–0.1 and 0.3–0.9 ms (Intel
// Xeon, 2 vCPUs), and a full evaluation from it takes a fourth to a
// sixth of the pair kernel's time (PIP 3.3 → 0.77 µs, VOPD 14.9 → 2.5
// µs). Above 16 tiles it is compact, a uint16 code per unordered pair
// into a dictionary of distinct terms: 0.62 and 0.44 MB on the 5×5 mesh
// and torus, 2.27 and 1.80 MB on the 6×6, built in about 6, 4, 15–24 and
// 15 ms, and a full DVOPD evaluation falls from 47 to 15 µs (medians of
// 8 rounds of BenchmarkFig3EvalDVOPD against the kernel). A 7×7 table
// would take 6.0–7.1 MB and 45–86 ms to build, its mesh's dictionary
// (54,107 terms) near the 65,535 a table can code, and an 8×8 one 16.8
// MB for its codes alone, so networks above 6×6 keep the kernel.
const tableMaxTiles = 36

// TableFor returns the path table problems on nw score from: nw's
// table, built on the first call for nw, when nw has at most
// tableMaxTiles tiles. It returns nil above the cap, and for a network
// with a path too long for a table; problems on those score with the
// pair kernel.
func TableFor(nw *network.Network) *analysis.PathTable {
	if nw.NumTiles() > tableMaxTiles {
		return nil
	}
	tab, err := analysis.TableOf(nw)
	if err != nil {
		return nil
	}
	return tab
}

// NewProblem validates Eq. 2 (the application must fit the topology) and
// binds the pieces together. The problem scores with the engine TableFor
// picks from the network's tile count; the table, when there is one and
// the network has not built it yet (a network cache builds it with the
// network), is built when the problem first evaluates.
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

// Clone returns an independent Problem sharing the immutable app,
// network, path table, edges, incidence lists and weights; only the
// evaluator and the scratch buffers are its own.
func (p *Problem) Clone() *Problem {
	cp := *p
	cp.ev = nil
	cp.comms = make([]analysis.Communication, len(p.comms))
	cp.seenTiles = make([]bool, len(p.seenTiles))
	return &cp
}

// evaluator returns the problem's full evaluator, making it on first use.
func (p *Problem) evaluator() *analysis.Evaluator {
	if p.ev == nil {
		if tab := TableFor(p.nw); tab != nil {
			p.ev = analysis.NewTableEvaluator(tab)
		} else {
			p.ev = analysis.NewEvaluator(p.nw)
		}
	}
	return p.ev
}

// Rescore scores a mapping like Evaluate, on a fresh evaluator that runs
// the pair kernel whatever engine the problem scores with: an independent
// check of a stored score, which builds no path table.
func (p *Problem) Rescore(m Mapping) (Score, error) {
	cp := p.Clone()
	cp.ev = analysis.NewEvaluator(p.nw)
	return cp.Evaluate(m)
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
	if err := p.commsOf(m, p.comms, p.seenTiles); err != nil {
		return Score{}, err
	}
	var res analysis.Result
	var err error
	if p.obj == MinimizeWeightedLoss {
		res, err = p.evaluator().EvaluateWeighted(p.comms, p.weights)
	} else {
		res, err = p.evaluator().Evaluate(p.comms)
	}
	if err != nil {
		return Score{}, err
	}
	return p.scoreFrom(res)
}

// commsOf checks that m places every task of the app on its own tile of
// the network (Eqs. 5-6), with seen as the check's scratch (one slot per
// tile), and writes into comms, one slot per CG edge, the communication
// each edge induces under m.
func (p *Problem) commsOf(m Mapping, comms []analysis.Communication, seen []bool) error {
	if len(m) != p.app.NumTasks() {
		return fmt.Errorf("core: mapping covers %d tasks, app has %d", len(m), p.app.NumTasks())
	}
	if err := m.validate(p.nw.NumTiles(), seen); err != nil {
		return err
	}
	for i, e := range p.edges {
		comms[i] = analysis.Communication{Src: m[e.Src], Dst: m[e.Dst]}
	}
	return nil
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
	if err := p.commsOf(m, p.comms, p.seenTiles); err != nil {
		return analysis.Result{}, nil, err
	}
	return p.evaluator().Detailed(p.comms, nil)
}
