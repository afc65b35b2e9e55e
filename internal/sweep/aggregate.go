package sweep

import (
	"math"
	"sort"

	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
)

// counted reports whether a result enters the aggregations: failed cells
// and cancelled runs are left out, so a partial run can never stand in
// for a cell that spent its budget.
func (r Result) counted() bool { return r.Err == nil && !r.Run.Cancelled }

// Aggregates is the standard set of sweep aggregations.
type Aggregates struct {
	Table        []TableRow               `json:"table,omitempty"`
	BudgetCurves []BudgetPoint            `json:"budget_curves,omitempty"`
	Pareto       map[string][]ParetoEntry `json:"pareto,omitempty"`
	Analysis     []AnalysisRow            `json:"analysis,omitempty"`
}

// Aggregate folds results through the four standard aggregators — the
// one sweep assembly every backend shares, so equal per-cell results
// aggregate identically wherever the cells ran.
func Aggregate(results []Result) Aggregates {
	return Aggregates{
		Table:        Table(results),
		BudgetCurves: BudgetCurves(results),
		Pareto:       AnnotatedParetoFronts(results),
		Analysis:     AnalysisSummary(results),
	}
}

// TableCell is one algorithm/topology cell of a comparison table: the
// best worst-case SNR found under the "snr" objective and the best
// worst-case loss found under the "loss" objective, à la Table II.
type TableCell struct {
	SNRDB  float64 `json:"snr_db"`
	LossDB float64 `json:"loss_db"`
	Evals  int     `json:"evals"`
}

// TableRow is one application row of the comparison table: per-algorithm
// cells for the mesh and torus topologies.
type TableRow struct {
	App   string               `json:"app"`
	Mesh  map[string]TableCell `json:"mesh"`
	Torus map[string]TableCell `json:"torus"`
}

// Table folds sweep results into Table II comparison rows: one row per
// application (in order of first appearance), one cell per
// (topology, algorithm) with the SNR column taken from "snr"-objective
// cells and the loss column from "loss"-objective cells. When the grid
// spans several budgets or seeds, each column reports the best score any
// of those cells found (ties keep the earlier cell), honoring the
// "best ... found" semantics of TableCell. Results from topologies other
// than mesh/torus, failed cells and cancelled runs are skipped.
func Table(results []Result) []TableRow {
	type slot struct{ app, topo, algo, obj string }
	bestCost := make(map[slot]float64)
	byApp := make(map[string]*TableRow)
	var order []string
	for _, r := range results {
		if !r.counted() {
			continue
		}
		switch r.Cell.Arch.Topology {
		case "mesh", "torus":
		default:
			continue
		}
		switch r.Cell.Objective {
		case "snr", "loss":
		default:
			continue
		}
		app := r.Cell.AppName()
		row, ok := byApp[app]
		if !ok {
			row = &TableRow{
				App:   app,
				Mesh:  make(map[string]TableCell),
				Torus: make(map[string]TableCell),
			}
			byApp[app] = row
			order = append(order, app)
		}
		cells := row.Mesh
		if r.Cell.Arch.Topology == "torus" {
			cells = row.Torus
		}
		k := slot{app, r.Cell.Arch.Topology, r.Cell.Algorithm, r.Cell.Objective}
		if prev, seen := bestCost[k]; seen && prev <= r.Run.Score.Cost {
			continue
		}
		bestCost[k] = r.Run.Score.Cost
		cell := cells[r.Cell.Algorithm]
		if r.Cell.Objective == "snr" {
			cell.SNRDB = r.Run.Score.WorstSNRDB
		} else {
			cell.LossDB = r.Run.Score.WorstLossDB
		}
		cell.Evals = r.Run.Evals
		cells[r.Cell.Algorithm] = cell
	}
	rows := make([]TableRow, 0, len(order))
	for _, app := range order {
		rows = append(rows, *byApp[app])
	}
	return rows
}

// BudgetPoint is one point of a budget-ablation curve: the result
// quality one algorithm reached on one application, topology and
// objective at one budget.
type BudgetPoint struct {
	App       string  `json:"app"`
	Topology  string  `json:"topology"`
	Objective string  `json:"objective"`
	Algorithm string  `json:"algorithm"`
	Budget    int     `json:"budget"`
	SNRDB     float64 `json:"snr_db"`
	LossDB    float64 `json:"loss_db"`
	Evals     int     `json:"evals"`
}

// BudgetCurves folds sweep results into budget-ablation curves, sorted
// by application, topology, objective, algorithm, then ascending budget
// — how result quality scales with the evaluation budget, the knob
// behind the paper's "same running time" protocol. Both score columns
// come from each cell's single run (a Score carries both metrics
// regardless of objective). Failed cells and cancelled runs are skipped.
func BudgetCurves(results []Result) []BudgetPoint {
	var pts []BudgetPoint
	for _, r := range results {
		if !r.counted() {
			continue
		}
		pts = append(pts, BudgetPoint{
			App:       r.Cell.AppName(),
			Topology:  r.Cell.Arch.Topology,
			Objective: r.Cell.Objective,
			Algorithm: r.Cell.Algorithm,
			Budget:    r.Cell.Budget,
			SNRDB:     r.Run.Score.WorstSNRDB,
			LossDB:    r.Run.Score.WorstLossDB,
			Evals:     r.Run.Evals,
		})
	}
	sort.SliceStable(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		switch {
		case a.App != b.App:
			return a.App < b.App
		case a.Topology != b.Topology:
			return a.Topology < b.Topology
		case a.Objective != b.Objective:
			return a.Objective < b.Objective
		case a.Algorithm != b.Algorithm:
			return a.Algorithm < b.Algorithm
		default:
			return a.Budget < b.Budget
		}
	})
	return pts
}

// ParetoFronts builds, per application, the Pareto front of
// (worst-case loss, worst-case SNR) over the best mappings of every
// successful, uncancelled cell — the multi-objective view of a sweep
// whose cells optimized different single objectives.
func ParetoFronts(results []Result) map[string][]core.ParetoPoint {
	fronts := make(map[string]*core.ParetoFront)
	for _, r := range results {
		if !r.counted() || r.Run.Mapping == nil {
			continue
		}
		app := r.Cell.AppName()
		f, ok := fronts[app]
		if !ok {
			f = &core.ParetoFront{}
			fronts[app] = f
		}
		f.Offer(r.Run.Mapping, r.Run.Score)
	}
	out := make(map[string][]core.ParetoPoint, len(fronts))
	for app, f := range fronts {
		out[app] = f.Points()
	}
	return out
}

// AnalysisRow aggregates the analysis reports of one application's cells
// into the sweep's analysis-derived comparison columns. Counters tell
// how many cells contributed to each column, so a fraction over a
// partial grid is never mistaken for one over the whole grid.
type AnalysisRow struct {
	App string `json:"app"`
	// Cells counts the successful cells of the application; Reports those
	// that carried an analysis report.
	Cells   int `json:"cells"`
	Reports int `json:"reports"`
	// PowerFeasibleFraction is the fraction of power-assessed cells whose
	// design point fit the optical power budget.
	PowerAssessed         int     `json:"power_assessed,omitempty"`
	PowerFeasibleFraction float64 `json:"power_feasible_fraction"`
	// WorstVariationSNRDB is the most pessimistic finite SNR any
	// robustness study of the application observed.
	RobustnessAssessed  int     `json:"robustness_assessed,omitempty"`
	WorstVariationSNRDB float64 `json:"worst_variation_snr_db"`
	// SaturationLoad is the smallest per-cell saturation point over the
	// simulated cells — the load headroom the worst mapping guarantees.
	SimAssessed    int     `json:"sim_assessed,omitempty"`
	SaturationLoad float64 `json:"saturation_load"`
	// WDMMaxChannels is the largest wavelength count any cell needed for
	// contention-free operation.
	WDMAssessed    int `json:"wdm_assessed,omitempty"`
	WDMMaxChannels int `json:"wdm_max_channels"`
}

// AnalysisSummary folds the per-cell analysis reports into one row per
// application (in order of first appearance, like Table): power-feasible
// fraction, worst SNR under parameter variation, worst simulated
// saturation point and peak WDM channel demand. Failed cells and
// cancelled runs are skipped; cells without reports are skipped too but
// counted in Cells.
func AnalysisSummary(results []Result) []AnalysisRow {
	byApp := make(map[string]*AnalysisRow)
	var order []string
	feasible := make(map[string]int)
	for _, r := range results {
		if !r.counted() {
			continue
		}
		app := r.Cell.AppName()
		row, ok := byApp[app]
		if !ok {
			row = &AnalysisRow{App: app, WorstVariationSNRDB: math.Inf(1), SaturationLoad: math.Inf(1)}
			byApp[app] = row
			order = append(order, app)
		}
		row.Cells++
		rep := r.Report
		if rep == nil {
			continue
		}
		row.Reports++
		if rep.Power != nil {
			row.PowerAssessed++
			if rep.Power.Feasible {
				feasible[app]++
			}
		}
		if rep.Robustness != nil {
			row.RobustnessAssessed++
			if rep.Robustness.WorstSNRDB < row.WorstVariationSNRDB {
				row.WorstVariationSNRDB = rep.Robustness.WorstSNRDB
			}
		}
		if rep.Sim != nil {
			row.SimAssessed++
			if rep.Sim.SaturationLoad < row.SaturationLoad {
				row.SaturationLoad = rep.Sim.SaturationLoad
			}
		}
		if rep.WDM != nil {
			row.WDMAssessed++
			if rep.WDM.Channels > row.WDMMaxChannels {
				row.WDMMaxChannels = rep.WDM.Channels
			}
		}
	}
	rows := make([]AnalysisRow, 0, len(order))
	for _, app := range order {
		row := byApp[app]
		if row.PowerAssessed > 0 {
			row.PowerFeasibleFraction = float64(feasible[app]) / float64(row.PowerAssessed)
		}
		// Columns no cell contributed to read as zero, not +Inf (which
		// JSON cannot carry anyway).
		if row.RobustnessAssessed == 0 {
			row.WorstVariationSNRDB = 0
		}
		if row.SimAssessed == 0 {
			row.SaturationLoad = 0
		}
		rows = append(rows, *row)
	}
	return rows
}

// ParetoEntry is one non-dominated point of an annotated Pareto front:
// the point itself plus the producing cell and its analysis report, so
// multi-objective views carry the physical-feasibility columns.
type ParetoEntry struct {
	core.ParetoPoint
	// CellIndex is the grid position of the cell whose best mapping the
	// point is.
	CellIndex int `json:"cell_index"`
	// Report is that cell's analysis report (nil when none was run).
	Report *scenario.Report `json:"report,omitempty"`
}

// AnnotatedParetoFronts builds, per application, the Pareto front of
// (worst-case loss, worst-case SNR) over the best mappings of every
// successful cell — like ParetoFronts — and annotates each surviving
// point with the cell that produced it and that cell's analysis report.
// Ties on an identical score keep the earlier cell, so annotation is
// deterministic regardless of execution order.
func AnnotatedParetoFronts(results []Result) map[string][]ParetoEntry {
	fronts := ParetoFronts(results)
	out := make(map[string][]ParetoEntry, len(fronts))
	for app, pts := range fronts {
		entries := make([]ParetoEntry, 0, len(pts))
		for _, p := range pts {
			e := ParetoEntry{ParetoPoint: p, CellIndex: -1}
			for _, r := range results {
				if !r.counted() || r.Cell.AppName() != app {
					continue
				}
				if r.Run.Score.WorstLossDB == p.WorstLossDB && r.Run.Score.WorstSNRDB == p.WorstSNRDB {
					e.CellIndex = r.Index
					e.Report = r.Report
					break
				}
			}
			entries = append(entries, e)
		}
		out[app] = entries
	}
	return out
}
