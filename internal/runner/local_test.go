package runner

import (
	"context"
	"reflect"
	"testing"

	"phonocmap/internal/analysis"
	"phonocmap/internal/cg"
	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/network"
	"phonocmap/internal/scenario"
	"phonocmap/internal/search"
	"phonocmap/internal/sweep"
)

// referenceRun executes spec without the scenario executor: the search
// straight through core (one exploration, or islands) and the analyses
// through Compiled.Analyze, so Local is checked against an independent
// composition of the pipeline.
func referenceRun(t *testing.T, spec scenario.Spec) (core.RunResult, *scenario.Report) {
	t.Helper()
	comp, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	sp := comp.Spec
	var run core.RunResult
	if sp.Seeds > 1 {
		factory := func() (core.Searcher, error) { return search.New(sp.Algorithm) }
		run, _, err = core.RunParallel(comp.Problem, factory, core.ParallelOptions{
			Budget: sp.Budget, Seeds: core.SeedSequence(sp.Seed, sp.Seeds),
		})
	} else {
		var alg core.Searcher
		if alg, err = search.New(sp.Algorithm); err != nil {
			t.Fatal(err)
		}
		var ex *core.Exploration
		if ex, err = core.NewExploration(comp.Problem, core.Options{Budget: sp.Budget, Seed: sp.Seed}); err != nil {
			t.Fatal(err)
		}
		run, err = ex.Run(alg)
	}
	if err != nil {
		t.Fatal(err)
	}
	rep, err := comp.Analyze(run.Mapping, run.Score)
	if err != nil {
		t.Fatal(err)
	}
	return run, rep
}

// TestLocalMatchesScenarioRun: the Local backend is a repackaging of
// the scenario pipeline — same mapping, score, evaluation count and
// report as the reference composition for an equal spec.
func TestLocalMatchesScenarioRun(t *testing.T) {
	spec := scenario.Spec{
		App:       config.AppSpec{Builtin: "PIP"},
		Objective: "snr",
		Algorithm: "rs",
		Budget:    300,
		Seed:      7,
		Analyses: &scenario.AnalysesSpec{
			WDM:   &scenario.WDMSpec{},
			Power: &scenario.PowerSpec{},
		},
	}
	got, err := NewLocal().RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantRun, wantReport := referenceRun(t, spec)
	if !got.Mapping.Equal(wantRun.Mapping) || got.Score != wantRun.Score || got.Evals != wantRun.Evals {
		t.Errorf("Local diverges from the reference:\n got  %+v\n want %+v", got, wantRun)
	}
	if got.Seed != wantRun.Seed || got.Algorithm != wantRun.Algorithm {
		t.Errorf("run identity diverges: %+v vs %+v", got, wantRun)
	}
	if !reflect.DeepEqual(got.Report, wantReport) {
		t.Errorf("report diverges from the reference")
	}
	if len(got.IslandEvals) != 1 || got.IslandEvals[0] != got.Evals {
		t.Errorf("single-seed island breakdown %v, want [%d]", got.IslandEvals, got.Evals)
	}
	if got.Spec.Budget != 300 || got.Spec.Seeds != 1 || got.Spec.Arch.Width == 0 {
		t.Errorf("returned spec not normalized: %+v", got.Spec)
	}
}

// TestLocalIslands: islands mode reports one breakdown entry per seed
// and the same winner as the reference islands run.
func TestLocalIslands(t *testing.T) {
	spec := scenario.Spec{
		App:       config.AppSpec{Builtin: "PIP"},
		Algorithm: "rs",
		Budget:    200,
		Seed:      3,
		Seeds:     2,
	}
	got, err := NewLocal().RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceRun(t, spec)
	if got.Score != want.Score || got.Seed != want.Seed {
		t.Errorf("islands winner diverges: %+v vs %+v", got.Score, want.Score)
	}
	if len(got.IslandEvals) != 2 {
		t.Fatalf("island breakdown %v, want 2 entries", got.IslandEvals)
	}
	for i, e := range got.IslandEvals {
		if e == 0 {
			t.Errorf("island %d reports zero evaluations", i)
		}
	}
}

// TestLocalCancelledScenarioSkipsAnalyses: a cancelled run returns its
// best-so-far point without a report — the service worker's policy.
func TestLocalCancelledScenarioSkipsAnalyses(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := scenario.Spec{
		App:       config.AppSpec{Builtin: "VOPD"},
		Algorithm: "rs",
		Budget:    50_000_000,
		Analyses:  &scenario.AnalysesSpec{WDM: &scenario.WDMSpec{}},
	}
	done := make(chan struct{})
	var got ScenarioResult
	var err error
	go func() {
		defer close(done)
		got, err = NewLocal().RunScenario(ctx, spec)
	}()
	cancel()
	<-done
	if err != nil {
		// Cancelled before the first evaluation: also a valid outcome.
		return
	}
	if !got.Cancelled {
		t.Fatalf("uncancelled result from a cancelled context: %+v", got)
	}
	if got.Report != nil {
		t.Error("cancelled run carries an analysis report")
	}
}

// TestLocalSweepMatchesEngine: per-cell sweep outcomes equal the
// reference run cell by cell, and the aggregations cover the grid.
func TestLocalSweepMatchesEngine(t *testing.T) {
	grid := sweep.Spec{
		Apps:       []config.AppSpec{{Builtin: "PIP"}},
		Objectives: []string{"snr", "loss"},
		Algorithms: []string{"rs"},
		Budgets:    []int{150},
		Seeds:      []int64{1},
	}
	res, err := NewLocal().RunSweep(context.Background(), grid, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.Expand(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(cells) {
		t.Fatalf("%d cell results for %d cells", len(res.Cells), len(cells))
	}
	for i, cr := range res.Cells {
		if cr.Error != "" {
			t.Fatalf("cell %d failed: %s", i, cr.Error)
		}
		want, _ := referenceRun(t, cells[i].Scenario())
		if !cr.Mapping.Equal(want.Mapping) || cr.Score != want.Score || cr.Evals != want.Evals {
			t.Errorf("cell %d diverges from the reference", i)
		}
	}
	if len(res.Table) != 1 || res.Table[0].App != "PIP" {
		t.Errorf("table rows %+v", res.Table)
	}
	if len(res.BudgetCurves) != 2 {
		t.Errorf("budget curve has %d points, want 2", len(res.BudgetCurves))
	}
	if len(res.Pareto["PIP"]) == 0 {
		t.Error("empty Pareto front")
	}
}

// TestLocalKeepsNetworksAcrossSweeps runs the Table II grid (the eight
// apps on a mesh and a torus, both objectives, each searcher family)
// twice through one Local: the first sweep builds the eight networks and
// their path tables, the second builds none, and every cell of both
// equals sweep.RunCell's, which builds its own. The counters are
// process-wide, so this test must not run in parallel with others.
func TestLocalKeepsNetworksAcrossSweeps(t *testing.T) {
	var apps []config.AppSpec
	for _, name := range cg.AppNames() {
		apps = append(apps, config.AppSpec{Builtin: name})
	}
	grid := sweep.Spec{
		Apps:       apps,
		Archs:      []config.ArchSpec{{Topology: "mesh"}, {Topology: "torus"}},
		Objectives: []string{"snr", "loss"},
		Algorithms: []string{"rs", "ga", "rpbla"},
		Budgets:    []int{40},
	}
	cells, err := sweep.Expand(grid)
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocal()
	for round, want := range []int64{8, 0} {
		builds, tables := network.BuildsTotal(), analysis.TableBuildsTotal()
		res, err := local.RunSweep(context.Background(), grid, SweepOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := network.BuildsTotal() - builds; got != want {
			t.Errorf("sweep %d built %d networks, want %d", round, got, want)
		}
		if got := analysis.TableBuildsTotal() - tables; got != want {
			t.Errorf("sweep %d built %d path tables, want %d", round, got, want)
		}
		for i, cr := range res.Cells {
			run, _, err := sweep.RunCell(context.Background(), cells[i])
			if err != nil || cr.Error != "" {
				t.Fatalf("cell %s: %v / %s", cells[i].Label(), err, cr.Error)
			}
			if !cr.Mapping.Equal(run.Mapping) || cr.Score != run.Score || cr.Evals != run.Evals {
				t.Errorf("sweep %d cell %s: %+v, RunCell %+v", round, cells[i].Label(), cr.Score, run.Score)
			}
		}
	}
}

// TestLocalDiscovery: the discovery calls answer from the same tables
// the service exposes.
func TestLocalDiscovery(t *testing.T) {
	l := NewLocal()
	ctx := context.Background()
	apps, err := l.Apps(ctx)
	if err != nil || len(apps) == 0 {
		t.Fatalf("Apps: %v, %d entries", err, len(apps))
	}
	algos, err := l.Algorithms(ctx)
	if err != nil || len(algos) == 0 {
		t.Fatalf("Algorithms: %v, %d entries", err, len(algos))
	}
	routers, err := l.Routers(ctx)
	if err != nil || len(routers) == 0 {
		t.Fatalf("Routers: %v, %d entries", err, len(routers))
	}
	topos, err := l.Topologies(ctx)
	if err != nil || len(topos) == 0 {
		t.Fatalf("Topologies: %v, %d entries", err, len(topos))
	}
}
