package service

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
	"phonocmap/internal/sweep"
)

// topKeys encodes v and returns its top-level JSON keys, sorted.
func topKeys(t *testing.T, v any) []string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestWireKeySets pins the request and sweep-result bodies to the key
// sets they had when each type listed its fields itself: embedding the
// spec, runner and aggregation types may reorder keys, never rename,
// add or drop one. Every field is set, so omitempty hides no key.
func TestWireKeySets(t *testing.T) {
	app := config.AppSpec{Builtin: "PIP"}
	cases := []struct {
		name string
		v    any
		want []string
	}{
		{"Request", Request{
			Spec: Spec{
				App: app, Arch: config.DefaultArch(3, 3), Objective: "snr", Algorithm: "rs",
				Budget: 10, Seed: 2, Seeds: 2, Analyses: &scenario.AnalysesSpec{},
			},
			NoCache: true,
		}, []string{"algorithm", "analyses", "app", "arch", "budget", "no_cache", "objective", "seed", "seeds"}},
		{"SweepRequest", SweepRequest{
			Spec: sweep.Spec{
				Apps: []config.AppSpec{app}, Archs: []config.ArchSpec{{}}, Objectives: []string{"snr"},
				Algorithms: []string{"rs"}, Budgets: []int{10}, Seeds: []int64{1}, Islands: 2,
				Analyses: &scenario.AnalysesSpec{},
			},
			NoCache: true,
		}, []string{"algorithms", "analyses", "apps", "archs", "budgets", "islands", "no_cache", "objectives", "seeds"}},
		{"SweepCellResult", SweepCellResult{
			SweepCellResult: runner.SweepCellResult{
				Index: 1, Cell: sweep.Cell{App: app}, Score: core.Score{Cost: 1},
				Mapping: core.Mapping{0}, Evals: 3, Report: &scenario.Report{}, Error: "e",
			},
			JobID:  "job-000001",
			Cached: true,
		}, []string{"cached", "cell", "error", "evals", "index", "job_id", "mapping", "report", "score"}},
		{"SweepResult", SweepResult{
			ID: "sweep-000001", State: StateDone, Cells: []SweepCellResult{{}},
			Aggregates: sweep.Aggregates{
				Table:        []sweep.TableRow{{}},
				BudgetCurves: []sweep.BudgetPoint{{}},
				Pareto:       map[string][]sweep.ParetoEntry{"PIP": nil},
				Analysis:     []sweep.AnalysisRow{{}},
			},
		}, []string{"analysis", "budget_curves", "cells", "id", "pareto", "state", "table"}},
	}
	for _, c := range cases {
		if got := topKeys(t, c.v); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s keys = %v, want %v", c.name, got, c.want)
		}
	}
}
