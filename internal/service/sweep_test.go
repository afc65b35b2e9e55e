package service

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/runner"
	"phonocmap/internal/store"
	"phonocmap/internal/sweep"
)

// pollSweep polls the sweep status until pred is satisfied or the
// deadline passes.
func pollSweep(t *testing.T, base, id string, timeout time.Duration, pred func(SweepStatus) bool) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st SweepStatus
		if code := doJSON(t, http.MethodGet, base+"/v1/sweeps/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("sweep status poll returned %d", code)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s did not reach target state in %v (last: %+v)", id, timeout, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepMatchesTable2 is the sweep engine's unification proof: the
// same Table II grid submitted through POST /v1/sweeps and run in-process
// through runner.Local must produce identical comparison rows — one
// shared engine (expansion, normalization, seed derivation, aggregation)
// behind both fronts.
func TestSweepMatchesTable2(t *testing.T) {
	const budget = 250
	grid := sweep.Spec{
		Apps:       []config.AppSpec{{Builtin: "PIP"}},
		Archs:      []config.ArchSpec{{Topology: "mesh"}, {Topology: "torus"}},
		Objectives: []string{"snr", "loss"},
		Algorithms: []string{"rs", "rpbla"},
		Budgets:    []int{budget},
		Seeds:      []int64{6},
	}
	local, err := runner.NewLocal().RunSweep(context.Background(), grid, runner.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := local.Table

	_, ts := newTestServer(t, Config{Workers: 2})
	base := ts.URL
	req := SweepRequest{
		Spec: sweep.Spec{
			Apps:       grid.Apps,
			Archs:      grid.Archs,
			Objectives: grid.Objectives,
			Algorithms: grid.Algorithms,
			Budgets:    grid.Budgets,
			Seeds:      grid.Seeds,
		},
	}
	var submitted SweepStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/sweeps", req, &submitted); code != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d", code)
	}
	if len(submitted.Cells) != 8 { // 1 app x 2 archs x 2 objectives x 2 algorithms
		t.Fatalf("sweep expanded to %d cells, want 8", len(submitted.Cells))
	}

	final := pollSweep(t, base, submitted.ID, 120*time.Second, func(st SweepStatus) bool {
		return st.State.Terminal()
	})
	if final.State != StateDone {
		t.Fatalf("sweep finished %q (%+v)", final.State, final.Counts)
	}
	for _, cs := range final.Cells {
		if cs.State != StateDone {
			t.Errorf("cell %d finished %q (%s)", cs.Index, cs.State, cs.Error)
		}
		if cs.Evals != budget {
			t.Errorf("cell %d spent %d evals, want %d", cs.Index, cs.Evals, budget)
		}
	}

	var res SweepResult
	if code := doJSON(t, http.MethodGet, base+"/v1/sweeps/"+submitted.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("sweep result returned %d", code)
	}
	if !reflect.DeepEqual(res.Table, want) {
		t.Errorf("sweep table diverges from runner.Local:\n service: %+v\n local: %+v", res.Table, want)
	}
	if len(res.Pareto["PIP"]) == 0 {
		t.Error("sweep result has no Pareto front")
	}
	if len(res.BudgetCurves) == 0 {
		t.Error("sweep result has no budget curves")
	}
}

// TestSweepReusesJobCache: a cell whose spec was already computed — by
// an individually submitted job or by an identical cell of the same
// sweep — is answered from the content-addressed cache / shared job
// instead of recomputing.
func TestSweepReusesJobCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	base := ts.URL

	// Prime the cache with an ordinary job.
	jreq := Request{Spec: Spec{Algorithm: "rs", Budget: 300, Seed: 2}}
	jreq.App.Builtin = "PIP"
	var jst JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", jreq, &jst); code != http.StatusAccepted {
		t.Fatalf("job submit returned %d", code)
	}
	pollUntil(t, base, jst.ID, 60*time.Second, func(s JobStatus) bool { return s.State.Terminal() })

	var h0 Health
	doJSON(t, http.MethodGet, base+"/healthz", nil, &h0)

	// Two seeds: seed 2 duplicates the primed job (cache hit), seed 3 is
	// fresh work.
	sreq := SweepRequest{
		Spec: sweep.Spec{
			Apps:       []config.AppSpec{{Builtin: "PIP"}},
			Algorithms: []string{"rs"},
			Objectives: []string{"snr"},
			Budgets:    []int{300},
			Seeds:      []int64{2, 3},
		},
	}
	var sst SweepStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/sweeps", sreq, &sst); code != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d", code)
	}
	final := pollSweep(t, base, sst.ID, 60*time.Second, func(st SweepStatus) bool { return st.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("sweep finished %q", final.State)
	}
	if !final.Cells[0].Cached {
		t.Error("duplicate cell (seed 2) was not answered from the cache")
	}
	if final.Cells[1].Cached {
		t.Error("fresh cell (seed 3) claims to be cached")
	}

	var h1 Health
	doJSON(t, http.MethodGet, base+"/healthz", nil, &h1)
	if got := h1.TotalEvals - h0.TotalEvals; got != 300 {
		t.Errorf("sweep added %d evals, want 300 (cached cell must not recompute)", got)
	}

	// Duplicate cells inside one sweep share one job.
	dup := SweepRequest{
		Spec: sweep.Spec{
			Apps:       []config.AppSpec{{Builtin: "PIP"}},
			Algorithms: []string{"rs", "rs"},
			Objectives: []string{"snr"},
			Budgets:    []int{150},
			Seeds:      []int64{9},
		},
	}
	var dst SweepStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/sweeps", dup, &dst); code != http.StatusAccepted {
		t.Fatalf("dup sweep submit returned %d", code)
	}
	dfinal := pollSweep(t, base, dst.ID, 60*time.Second, func(st SweepStatus) bool { return st.State.Terminal() })
	if dfinal.Cells[0].JobID == "" || dfinal.Cells[0].JobID != dfinal.Cells[1].JobID {
		t.Errorf("identical cells did not share a job: %q vs %q", dfinal.Cells[0].JobID, dfinal.Cells[1].JobID)
	}
}

func TestSweepCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBudget: 100_000_000})
	base := ts.URL

	// Many long cells on one worker: the first runs, the rest queue or
	// wait in the feeder.
	sreq := SweepRequest{
		Spec: sweep.Spec{
			Apps:       []config.AppSpec{{Builtin: "VOPD"}},
			Algorithms: []string{"rs"},
			Budgets:    []int{50_000_000},
			Seeds:      []int64{1, 2, 3, 4},
		},
	}
	var sst SweepStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/sweeps", sreq, &sst); code != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d", code)
	}
	pollSweep(t, base, sst.ID, 30*time.Second, func(st SweepStatus) bool {
		return st.Counts[StateRunning] > 0
	})
	var cancelled SweepStatus
	if code := doJSON(t, http.MethodDelete, base+"/v1/sweeps/"+sst.ID, nil, &cancelled); code != http.StatusOK {
		t.Fatalf("sweep cancel returned %d", code)
	}
	final := pollSweep(t, base, sst.ID, 30*time.Second, func(st SweepStatus) bool { return st.State.Terminal() })
	if final.State != StateCancelled {
		t.Fatalf("cancelled sweep finished %q", final.State)
	}
	for _, cs := range final.Cells {
		if cs.State != StateCancelled && cs.State != StateDone {
			t.Errorf("cell %d left in state %q after cancel", cs.Index, cs.State)
		}
	}
	// A terminal (cancelled) sweep still serves its partial result.
	if code := doJSON(t, http.MethodGet, base+"/v1/sweeps/"+sst.ID+"/result", nil, &SweepResult{}); code != http.StatusOK {
		t.Errorf("cancelled sweep result returned %d", code)
	}
}

func TestSweepBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepCells: 16, MaxBudget: 1000})
	base := ts.URL
	cases := []struct {
		name string
		req  SweepRequest
	}{
		{"no apps", SweepRequest{}},
		{"unknown app", SweepRequest{Spec: sweep.Spec{Apps: []config.AppSpec{{Builtin: "NOPE"}}}}},
		{"unknown algorithm", SweepRequest{Spec: sweep.Spec{Apps: []config.AppSpec{{Builtin: "PIP"}}, Algorithms: []string{"nope"}}}},
		{"cell over budget limit", SweepRequest{Spec: sweep.Spec{Apps: []config.AppSpec{{Builtin: "PIP"}}, Budgets: []int{2000}}}},
		{"too many cells", SweepRequest{
			Spec: sweep.Spec{
				Apps:    []config.AppSpec{{Builtin: "PIP"}},
				Budgets: []int{100},
				Seeds:   []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
			},
		}},
		{"app too big for arch", SweepRequest{
			Spec: sweep.Spec{
				Apps:  []config.AppSpec{{Builtin: "VOPD"}},
				Archs: []config.ArchSpec{{Topology: "mesh", Width: 2, Height: 2}},
			},
		}},
	}
	for _, c := range cases {
		var env ErrorEnvelope
		if code := doJSON(t, http.MethodPost, base+"/v1/sweeps", c.req, &env); code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400 (%+v)", c.name, code, env)
		}
		if env.Error.Code != CodeInvalidSpec {
			t.Errorf("%s: error code %q, want %q", c.name, env.Error.Code, CodeInvalidSpec)
		}
	}

	if code := doJSON(t, http.MethodGet, base+"/v1/sweeps/sweep-999999", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown sweep id: got %d, want 404", code)
	}
}

// TestSweepAdmissionControl: live sweeps are bounded like the job queue
// — past MaxSweeps in-flight sweeps, submissions are shed with a 429
// queue_full envelope instead of accumulating unbounded buffered work.
func TestSweepAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxSweeps: 1, MaxBudget: 100_000_000})
	base := ts.URL
	long := SweepRequest{
		Spec: sweep.Spec{
			Apps:    []config.AppSpec{{Builtin: "VOPD"}},
			Budgets: []int{50_000_000},
			Seeds:   []int64{1},
		},
	}
	var first SweepStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/sweeps", long, &first); code != http.StatusAccepted {
		t.Fatalf("first sweep returned %d", code)
	}
	second := long
	second.Seeds = []int64{2}
	var env ErrorEnvelope
	if code := doJSON(t, http.MethodPost, base+"/v1/sweeps", second, &env); code != http.StatusTooManyRequests {
		t.Errorf("sweep beyond the in-flight limit returned %d, want 429", code)
	}
	if env.Error.Code != CodeQueueFull {
		t.Errorf("shed sweep error code %q, want %q", env.Error.Code, CodeQueueFull)
	}
	// Draining the first sweep frees the slot.
	doJSON(t, http.MethodDelete, base+"/v1/sweeps/"+first.ID, nil, nil)
	pollSweep(t, base, first.ID, 30*time.Second, func(st SweepStatus) bool { return st.State.Terminal() })
	quick := SweepRequest{
		Spec: sweep.Spec{
			Apps:    []config.AppSpec{{Builtin: "PIP"}},
			Budgets: []int{50},
			Seeds:   []int64{3},
		},
	}
	var third SweepStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/sweeps", quick, &third); code != http.StatusAccepted {
		t.Errorf("sweep after drain returned %d, want 202", code)
	}
	pollSweep(t, base, third.ID, 30*time.Second, func(st SweepStatus) bool { return st.State.Terminal() })
}

func TestSweepResultBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBudget: 100_000_000})
	base := ts.URL
	sreq := SweepRequest{
		Spec: sweep.Spec{
			Apps:    []config.AppSpec{{Builtin: "VOPD"}},
			Budgets: []int{50_000_000},
			Seeds:   []int64{7},
		},
	}
	var sst SweepStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/sweeps", sreq, &sst); code != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d", code)
	}
	if code := doJSON(t, http.MethodGet, base+"/v1/sweeps/"+sst.ID+"/result", nil, nil); code != http.StatusAccepted {
		t.Errorf("result of unfinished sweep returned %d, want 202", code)
	}
	doJSON(t, http.MethodDelete, base+"/v1/sweeps/"+sst.ID, nil, nil)

	// The sweep also shows up in the listing.
	var list []SweepStatus
	if code := doJSON(t, http.MethodGet, base+"/v1/sweeps", nil, &list); code != http.StatusOK || len(list) == 0 {
		t.Errorf("sweep listing returned %d with %d entries", code, len(list))
	}
}

// TestSweepListingAllocs: the listing status of a finished sweep reads
// each cell's state and evaluation total without copying the job's
// per-island breakdown or allocating its best score, so it allocates the
// same at 4 cells and at 16.
func TestSweepListingAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		e := store.Entry{Result: core.RunResult{Score: core.Score{Cost: -20}, Evals: 30}, IslandEvals: []int{10, 20}}
		sw := newSweep("sweep-000001", make([]sweepCell, n), false, context.Background())
		for i := 0; i < n; i++ {
			sw.setJob(i, newCachedJob(fmt.Sprintf("job-%06d", i+1), Spec{Seeds: 2}, e))
		}
		sw.markRunning()
		sw.finish()
		if st := sw.status(false); st.Counts[StateDone] != n || st.Evals != 30*n {
			t.Fatalf("%d-cell listing %+v", n, st)
		}
		return testing.AllocsPerRun(50, func() { sw.status(false) })
	}
	if a4, a16 := allocs(4), allocs(16); a4 != a16 {
		t.Errorf("listing a finished sweep allocates %v times at 4 cells and %v at 16", a4, a16)
	}
}
