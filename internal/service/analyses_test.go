package service

import (
	"net/http"
	"reflect"
	"testing"
	"time"

	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
	"phonocmap/internal/search"
	"phonocmap/internal/sweep"
)

// referenceRun executes a single-seed spec without the scenario
// executor: one core exploration plus Compiled.Analyze, so the service
// is checked against an independent composition of the pipeline.
func referenceRun(t *testing.T, spec scenario.Spec) (core.RunResult, *scenario.Report) {
	t.Helper()
	comp, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := search.New(comp.Spec.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExploration(comp.Problem, core.Options{Budget: comp.Spec.Budget, Seed: comp.Spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	run, err := ex.Run(alg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := comp.Analyze(run.Mapping, run.Score)
	if err != nil {
		t.Fatal(err)
	}
	return run, rep
}

// TestJobAnalysesReportAndCacheReplay covers the analysis pipeline end
// to end through the service: a job requesting analyses returns the
// typed report inline in JobResult, and a duplicate submission replays
// the identical report from the content-addressed cache.
func TestJobAnalysesReportAndCacheReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	req := Request{
		Spec: Spec{
			Algorithm: "rs",
			Budget:    300,
			Seed:      4,
			Analyses: &scenario.AnalysesSpec{
				Power:      &scenario.PowerSpec{},
				Robustness: &scenario.RobustnessSpec{Samples: 5},
			},
		},
	}
	req.App.Builtin = "PIP"

	var submitted JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if submitted.Spec.Analyses == nil || submitted.Spec.Analyses.Robustness == nil ||
		submitted.Spec.Analyses.Robustness.Tolerance != 0.1 {
		t.Errorf("spec analyses not normalized: %+v", submitted.Spec.Analyses)
	}
	final, _ := pollUntil(t, base, submitted.ID, 60*time.Second, func(st JobStatus) bool { return st.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("job finished %q (%s)", final.State, final.Error)
	}

	var res JobResult
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+submitted.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}
	if res.Report == nil || res.Report.Power == nil || res.Report.Robustness == nil {
		t.Fatalf("report sections missing: %+v", res.Report)
	}
	if res.Report.WDM != nil || res.Report.Sim != nil || res.Report.LinkFailures != nil {
		t.Errorf("unrequested report sections present: %+v", res.Report)
	}
	if res.Report.Robustness.Samples != 5 {
		t.Errorf("robustness samples %d, want 5", res.Report.Robustness.Samples)
	}

	// Duplicate submission: cache hit, identical report replayed.
	var second JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &second); code != http.StatusOK {
		t.Fatalf("duplicate submit returned %d, want 200 (cache hit)", code)
	}
	if !second.Cached {
		t.Fatal("duplicate submission not served from cache")
	}
	var res2 JobResult
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+second.ID+"/result", nil, &res2); code != http.StatusOK {
		t.Fatalf("cached result returned %d", code)
	}
	if !reflect.DeepEqual(res.Report, res2.Report) {
		t.Errorf("cached report diverges:\n live %+v\n hit  %+v", res.Report, res2.Report)
	}
	if res2.Score != res.Score {
		t.Errorf("cached score %+v != live %+v", res2.Score, res.Score)
	}

	// The local pipeline produces the same report for the same spec —
	// service and library fronts share one computation.
	_, localReport := referenceRun(t, scenario.Spec{
		App:       req.App,
		Algorithm: req.Algorithm,
		Budget:    req.Budget,
		Seed:      req.Seed,
		Analyses:  req.Analyses,
	})
	if !reflect.DeepEqual(localReport, res.Report) {
		t.Errorf("local report diverges from service report:\n local   %+v\n service %+v", localReport, res.Report)
	}
}

// TestAnalysesDistinctCacheIdentity is the cache-identity fix: a job
// with analyses must not alias the cache entry of the same job without
// them (and vice versa), or a cached score would be returned with a
// wrong/missing report.
func TestAnalysesDistinctCacheIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	plain := Request{Spec: Spec{Algorithm: "rs", Budget: 200, Seed: 3}}
	plain.App.Builtin = "PIP"
	var st JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", plain, &st); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if final, _ := pollUntil(t, base, st.ID, 60*time.Second, func(s JobStatus) bool { return s.State.Terminal() }); final.State != StateDone {
		t.Fatalf("plain job finished %q", final.State)
	}

	withAnalyses := plain
	withAnalyses.Analyses = &scenario.AnalysesSpec{Power: &scenario.PowerSpec{}}
	var st2 JobStatus
	code := doJSON(t, http.MethodPost, base+"/v1/jobs", withAnalyses, &st2)
	if code != http.StatusAccepted {
		t.Fatalf("analyses job returned %d: aliased to the analysis-free cache entry", code)
	}
	if final, _ := pollUntil(t, base, st2.ID, 60*time.Second, func(s JobStatus) bool { return s.State.Terminal() }); final.State != StateDone {
		t.Fatalf("analyses job finished %q", final.State)
	}
	var res JobResult
	doJSON(t, http.MethodGet, base+"/v1/jobs/"+st2.ID+"/result", nil, &res)
	if res.Report == nil || res.Report.Power == nil {
		t.Fatal("analyses job returned no report")
	}

	// And the reverse direction: the plain spec still replays without a
	// report.
	var st3 JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", plain, &st3); code != http.StatusOK {
		t.Fatalf("plain resubmit returned %d, want 200 (its own cache entry)", code)
	}
	var res3 JobResult
	doJSON(t, http.MethodGet, base+"/v1/jobs/"+st3.ID+"/result", nil, &res3)
	if res3.Report != nil {
		t.Errorf("analysis-free job replayed a report: %+v", res3.Report)
	}
}

// TestDegradedSpecBitIdenticalAcrossPaths: a failed_links arch spec
// produces bit-identical results through the local scenario pipeline
// (the CLI's execution path), the service job path, and a 1-cell
// service sweep.
func TestDegradedSpecBitIdenticalAcrossPaths(t *testing.T) {
	arch := config.ArchSpec{Router: "cygnus", Routing: "bfs", FailedLinks: [][2]int{{1, 2}}}
	app := config.AppSpec{Builtin: "PIP"}
	analyses := &scenario.AnalysesSpec{Power: &scenario.PowerSpec{}}

	// Local pipeline (what phonocmap map executes).
	localRun, localReport := referenceRun(t, scenario.Spec{
		App: app, Arch: arch, Algorithm: "rs", Budget: 250, Seed: 11, Analyses: analyses,
	})

	_, ts := newTestServer(t, Config{})
	base := ts.URL

	// Service job path (no_cache so the sweep below recomputes too).
	jreq := Request{Spec: Spec{App: app, Arch: arch, Algorithm: "rs", Budget: 250, Seed: 11, Analyses: analyses}, NoCache: true}
	var jst JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", jreq, &jst); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if final, _ := pollUntil(t, base, jst.ID, 60*time.Second, func(s JobStatus) bool { return s.State.Terminal() }); final.State != StateDone {
		t.Fatalf("job finished %q", final.State)
	}
	var jres JobResult
	doJSON(t, http.MethodGet, base+"/v1/jobs/"+jst.ID+"/result", nil, &jres)
	if !jres.Mapping.Equal(localRun.Mapping) || jres.Score != localRun.Score || jres.Evals != localRun.Evals {
		t.Errorf("service job diverges from local pipeline:\n local   %+v %+v\n service %+v %+v",
			localRun.Mapping, localRun.Score, jres.Mapping, jres.Score)
	}
	if !reflect.DeepEqual(jres.Report, localReport) {
		t.Errorf("service report diverges from local report")
	}

	// 1-cell sweep path.
	sreq := SweepRequest{
		Spec: sweep.Spec{
			Apps:       []config.AppSpec{app},
			Archs:      []config.ArchSpec{arch},
			Algorithms: []string{"rs"},
			Budgets:    []int{250},
			Seeds:      []int64{11},
			Analyses:   analyses,
		},
		NoCache: true,
	}
	var sst SweepStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/sweeps", sreq, &sst); code != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d", code)
	}
	if len(sst.Cells) != 1 {
		t.Fatalf("sweep expanded to %d cells, want 1", len(sst.Cells))
	}
	fin := pollSweep(t, base, sst.ID, 60*time.Second, func(st SweepStatus) bool { return st.State.Terminal() })
	if fin.State != StateDone {
		t.Fatalf("sweep finished %q", fin.State)
	}
	var sres SweepResult
	doJSON(t, http.MethodGet, base+"/v1/sweeps/"+sst.ID+"/result", nil, &sres)
	cell := sres.Cells[0]
	if !cell.Mapping.Equal(localRun.Mapping) || cell.Score != localRun.Score || cell.Evals != localRun.Evals {
		t.Errorf("sweep cell diverges from local pipeline:\n local %+v %+v\n sweep %+v %+v",
			localRun.Mapping, localRun.Score, cell.Mapping, cell.Score)
	}
	if !reflect.DeepEqual(cell.Report, localReport) {
		t.Errorf("sweep cell report diverges from local report")
	}
}

// TestSweepAnalysisColumnsMatchLocal extends the TestSweepMatchesTable2
// equivalence to the analysis-derived aggregation columns: the same
// analyses-bearing grid executed through POST /v1/sweeps and through the
// local sweep engine must fold into identical AnalysisSummary rows and
// annotated Pareto fronts.
func TestSweepAnalysisColumnsMatchLocal(t *testing.T) {
	grid := sweep.Spec{
		Apps:       []config.AppSpec{{Builtin: "PIP"}},
		Objectives: []string{"snr", "loss"},
		Algorithms: []string{"rs"},
		Budgets:    []int{200},
		Seeds:      []int64{2, 3},
		Analyses: &scenario.AnalysesSpec{
			Power:      &scenario.PowerSpec{},
			Robustness: &scenario.RobustnessSpec{Samples: 4},
			WDM:        &scenario.WDMSpec{},
		},
	}

	cells, err := sweep.Expand(grid)
	if err != nil {
		t.Fatal(err)
	}
	localResults, err := sweep.Run(cells, sweep.NewCellRunner(nil), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := sweep.AnalysisSummary(localResults)
	wantPareto := sweep.AnnotatedParetoFronts(localResults)
	if len(wantRows) != 1 || wantRows[0].PowerAssessed != 4 || wantRows[0].RobustnessAssessed != 4 {
		t.Fatalf("local analysis rows unexpected: %+v", wantRows)
	}

	_, ts := newTestServer(t, Config{Workers: 2})
	base := ts.URL
	req := SweepRequest{
		Spec: sweep.Spec{
			Apps:       grid.Apps,
			Objectives: grid.Objectives,
			Algorithms: grid.Algorithms,
			Budgets:    grid.Budgets,
			Seeds:      grid.Seeds,
			Analyses:   grid.Analyses,
		},
	}
	var sst SweepStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/sweeps", req, &sst); code != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d", code)
	}
	fin := pollSweep(t, base, sst.ID, 120*time.Second, func(st SweepStatus) bool { return st.State.Terminal() })
	if fin.State != StateDone {
		t.Fatalf("sweep finished %q (%+v)", fin.State, fin.Counts)
	}
	var sres SweepResult
	doJSON(t, http.MethodGet, base+"/v1/sweeps/"+sst.ID+"/result", nil, &sres)
	if !reflect.DeepEqual(sres.Analysis, wantRows) {
		t.Errorf("service analysis rows diverge from local engine:\n service %+v\n local   %+v", sres.Analysis, wantRows)
	}
	if !reflect.DeepEqual(sres.Pareto, wantPareto) {
		t.Errorf("service annotated Pareto diverges from local engine:\n service %+v\n local   %+v", sres.Pareto, wantPareto)
	}
	for _, c := range sres.Cells {
		if c.Report == nil || c.Report.Power == nil || c.Report.WDM == nil {
			t.Errorf("cell %d missing report sections: %+v", c.Index, c.Report)
		}
	}
}

// TestDiscoveryRoutersAndTopologies covers the new discovery endpoints.
func TestDiscoveryRoutersAndTopologies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	var routers []scenario.RouterInfo
	if code := doJSON(t, http.MethodGet, base+"/v1/routers", nil, &routers); code != http.StatusOK {
		t.Fatalf("routers returned %d", code)
	}
	if len(routers) != 3 {
		t.Fatalf("%d routers, want 3", len(routers))
	}
	byName := make(map[string]scenario.RouterInfo)
	for _, r := range routers {
		byName[r.Name] = r
	}
	if crux, ok := byName["crux"]; !ok || crux.AllTurn {
		t.Errorf("crux info wrong: %+v", byName["crux"])
	}
	if cygnus, ok := byName["cygnus"]; !ok || !cygnus.AllTurn || cygnus.Rings == 0 {
		t.Errorf("cygnus info wrong: %+v", byName["cygnus"])
	}

	var topos []string
	if code := doJSON(t, http.MethodGet, base+"/v1/topologies", nil, &topos); code != http.StatusOK {
		t.Fatalf("topologies returned %d", code)
	}
	if !reflect.DeepEqual(topos, []string{"mesh", "torus", "ring"}) {
		t.Errorf("topologies = %v", topos)
	}
}
