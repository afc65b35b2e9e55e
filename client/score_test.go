package client

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"phonocmap/internal/config"
	"phonocmap/internal/scenario"
	"phonocmap/internal/service"
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
