package sweep

import (
	"testing"

	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
)

// doneAndCancelled returns a complete cell and a cancelled run of the
// same table slot. The cancelled run would win every aggregation if it
// were counted: a dominating score, a budget of its own and an analysis
// report.
func doneAndCancelled() (done, cancelled Result) {
	cell := Cell{
		App:       builtin("PIP"),
		Arch:      config.ArchSpec{Topology: "mesh"},
		Objective: "snr",
		Algorithm: "rs",
		Budget:    100,
	}
	done = Result{
		Index: 0,
		Cell:  cell,
		Run: core.RunResult{
			Mapping: core.Mapping{0, 1},
			Score:   core.Score{Cost: -20, WorstSNRDB: 20, WorstLossDB: -2},
			Evals:   100,
		},
	}
	cell.Budget = 5000
	cancelled = Result{
		Index: 1,
		Cell:  cell,
		Run: core.RunResult{
			Mapping:   core.Mapping{1, 0},
			Score:     core.Score{Cost: -30, WorstSNRDB: 30, WorstLossDB: -1},
			Evals:     40,
			Cancelled: true,
		},
		Report: &scenario.Report{Power: &scenario.PowerReport{Feasible: true}},
	}
	return done, cancelled
}

func TestTableSkipsCancelledRuns(t *testing.T) {
	done, cancelled := doneAndCancelled()
	rows := Table([]Result{done, cancelled})
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	if got := rows[0].Mesh["rs"]; got.SNRDB != 20 || got.Evals != 100 {
		t.Errorf("mesh/rs cell = %+v, want the complete run's (snr 20, 100 evals)", got)
	}
	if rows := Table([]Result{cancelled}); len(rows) != 0 {
		t.Errorf("a cancelled run alone produced rows %+v", rows)
	}
}

func TestBudgetCurvesSkipCancelledRuns(t *testing.T) {
	done, cancelled := doneAndCancelled()
	pts := BudgetCurves([]Result{done, cancelled})
	if len(pts) != 1 || pts[0].Budget != 100 || pts[0].SNRDB != 20 {
		t.Errorf("budget curve = %+v, want only the complete budget-100 point", pts)
	}
}

func TestParetoFrontsSkipCancelledRuns(t *testing.T) {
	done, cancelled := doneAndCancelled()
	front := ParetoFronts([]Result{done, cancelled})["PIP"]
	if len(front) != 1 || front[0].WorstSNRDB != 20 || front[0].WorstLossDB != -2 {
		t.Errorf("front = %+v, want only the complete run's point", front)
	}
}

func TestAnnotatedParetoFrontsSkipCancelledRuns(t *testing.T) {
	done, cancelled := doneAndCancelled()
	// Same score as the complete run and an earlier index: only the
	// cancellation tells the two apart when the point is annotated.
	cancelled.Index, done.Index = 0, 1
	cancelled.Run.Score = done.Run.Score
	entries := AnnotatedParetoFronts([]Result{cancelled, done})["PIP"]
	if len(entries) != 1 {
		t.Fatalf("entries = %+v", entries)
	}
	if e := entries[0]; e.CellIndex != 1 || e.Report != nil {
		t.Errorf("point annotated with cell %d (report %+v), want the complete cell 1", e.CellIndex, e.Report)
	}
}

func TestAnalysisSummarySkipsCancelledRuns(t *testing.T) {
	done, cancelled := doneAndCancelled()
	rows := AnalysisSummary([]Result{done, cancelled})
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	if r := rows[0]; r.Cells != 1 || r.Reports != 0 || r.PowerAssessed != 0 {
		t.Errorf("row %+v counts the cancelled run", r)
	}
}
