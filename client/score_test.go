package client

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"phonocmap/internal/config"
	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
	"phonocmap/internal/service"
	"phonocmap/internal/sweep"
)

// TestCrosstalkFreeScore runs a loss job on a two-task, one-edge custom
// application: its only communication meets no other, so the winning
// score's worst-case SNR is +Inf. The status, the result the client
// decodes, and the store entry a restarted node replays must all carry
// it.
func TestCrosstalkFreeScore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	spec := scenario.Spec{
		App: config.AppSpec{Name: "pair", Tasks: []string{"a", "b"},
			Edges: []config.EdgeSpec{{Src: "a", Dst: "b", Bandwidth: 1}}},
		Objective: "loss",
		Algorithm: "rs",
		Budget:    50,
	}
	c, srv, ts := bootNode(t, dir, 8)
	res, err := c.RunScenario(ctx, spec)
	if err != nil {
		t.Fatalf("crosstalk-free run: %v", err)
	}
	if !math.IsInf(res.Score.WorstSNRDB, 1) {
		t.Fatalf("worst-case SNR %v, want +Inf", res.Score.WorstSNRDB)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(list) != 1 {
		t.Fatalf("job list: HTTP %d, %d jobs, %v", resp.StatusCode, len(list), err)
	}
	if b := list[0].Best; b == nil || !math.IsInf(b.WorstSNRDB, 1) {
		t.Fatalf("status best %+v, want a +Inf worst-case SNR", b)
	}
	stopNode(t, srv, ts)

	// Disk-only: the replay reads the entry back from the store.
	c2, srv2, ts2 := bootNode(t, dir, -1)
	defer stopNode(t, srv2, ts2)
	replay, err := c2.RunScenario(ctx, spec)
	if err != nil {
		t.Fatalf("replay from the store: %v", err)
	}
	jsonDiff(t, "store replay", replay, res)
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalEvals != 0 || h.Cache.Store == nil || h.Cache.Store.Hits == 0 {
		t.Errorf("replay recomputed (evals_total %d) or missed the store (%+v)", h.TotalEvals, h.Cache.Store)
	}
}

// TestCrosstalkFreeSweep sweeps the two-task, one-edge custom app under
// snr and loss through the client: the table, the budget curves and the
// Pareto front it decodes must carry the cells' +Inf worst-case SNR, and
// equal what the in-process runner assembles.
func TestCrosstalkFreeSweep(t *testing.T) {
	ctx := context.Background()
	grid := sweep.Spec{
		Apps: []config.AppSpec{{Name: "pair", Tasks: []string{"a", "b"},
			Edges: []config.EdgeSpec{{Src: "a", Dst: "b", Bandwidth: 1}}}},
		Objectives: []string{"snr", "loss"},
		Algorithms: []string{"rs"},
		Budgets:    []int{20},
	}
	c, srv, ts := bootNode(t, t.TempDir(), 8)
	defer stopNode(t, srv, ts)
	res, err := c.RunSweep(ctx, grid, runner.SweepOptions{})
	if err != nil {
		t.Fatalf("crosstalk-free sweep: %v", err)
	}
	if len(res.Table) != 1 || !math.IsInf(float64(res.Table[0].Mesh["rs"].SNRDB), 1) {
		t.Errorf("table %+v, want one row with a +Inf SNR", res.Table)
	}
	if len(res.BudgetCurves) != 2 {
		t.Errorf("%d budget points, want 2", len(res.BudgetCurves))
	}
	for _, p := range res.BudgetCurves {
		if !math.IsInf(float64(p.SNRDB), 1) {
			t.Errorf("budget point %+v, want a +Inf SNR", p)
		}
	}
	if front := res.Pareto["pair"]; len(front) != 1 || !math.IsInf(float64(front[0].WorstSNRDB), 1) {
		t.Errorf("Pareto front %+v, want one point with a +Inf SNR", front)
	}
	local, err := runner.NewLocal().RunSweep(ctx, grid, runner.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jsonDiff(t, "client vs local sweep", res, local)
}
