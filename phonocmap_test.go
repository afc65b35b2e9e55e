package phonocmap_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"phonocmap"
)

func TestAppsComplete(t *testing.T) {
	apps := phonocmap.Apps()
	if len(apps) != 8 {
		t.Fatalf("Apps() = %v, want 8 entries", apps)
	}
	for _, name := range apps {
		g, err := phonocmap.App(name)
		if err != nil {
			t.Errorf("App(%q): %v", name, err)
			continue
		}
		if g.NumTasks() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", name)
		}
	}
	if _, err := phonocmap.App("nope"); err == nil {
		t.Error("App accepted an unknown name")
	}
}

func TestAlgorithmsAndRouters(t *testing.T) {
	algos := phonocmap.Algorithms()
	if len(algos) < 3 {
		t.Errorf("Algorithms() = %v", algos)
	}
	for _, r := range phonocmap.Routers() {
		s, err := phonocmap.RouterSummary(r)
		if err != nil || s == "" {
			t.Errorf("RouterSummary(%q) = %q, %v", r, s, err)
		}
	}
	if _, err := phonocmap.RouterSummary("nope"); err == nil {
		t.Error("RouterSummary accepted unknown router")
	}
	if len(phonocmap.Topologies()) != 3 {
		t.Errorf("Topologies() = %v", phonocmap.Topologies())
	}
}

func TestSquareForTasks(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 8: 3, 16: 4, 22: 5, 32: 6}
	for n, want := range cases {
		if got := phonocmap.SquareForTasks(n); got != want {
			t.Errorf("SquareForTasks(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestEndToEndOptimize(t *testing.T) {
	app := phonocmap.MustApp("PIP")
	net, err := phonocmap.NewMeshNetwork(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := phonocmap.NewProblem(app, net, phonocmap.MaximizeSNR)
	if err != nil {
		t.Fatal(err)
	}
	res, err := phonocmap.Optimize(prob, "rpbla", 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 500 {
		t.Errorf("Evals = %d, want 500", res.Evals)
	}
	if res.Score.WorstSNRDB <= 0 || math.IsInf(res.Score.WorstSNRDB, 0) {
		t.Errorf("SNR = %v, want finite positive", res.Score.WorstSNRDB)
	}
	if err := phonocmap.Verify(prob, res); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Corrupt the result: Verify must notice.
	bad := res
	bad.Score.WorstSNRDB += 1
	bad.Score.Cost -= 1
	if err := phonocmap.Verify(prob, bad); err == nil {
		t.Error("Verify accepted a corrupted score")
	}
}

func TestCompareEqualBudgets(t *testing.T) {
	app := phonocmap.MustApp("MWD")
	net, err := phonocmap.NewMeshNetwork(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := phonocmap.NewProblem(app, net, phonocmap.MinimizeLoss)
	if err != nil {
		t.Fatal(err)
	}
	results, err := phonocmap.Compare(prob, []string{"rs", "ga", "rpbla"}, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("Compare returned %d results", len(results))
	}
	for _, r := range results {
		if r.Evals > 400 {
			t.Errorf("%s exceeded budget: %d", r.Algorithm, r.Evals)
		}
		if r.Score.WorstLossDB >= 0 {
			t.Errorf("%s loss %v not negative", r.Algorithm, r.Score.WorstLossDB)
		}
	}
	if _, err := phonocmap.Compare(prob, []string{"nope"}, 100, 1); err == nil {
		t.Error("Compare accepted unknown algorithm")
	}
}

func TestTorusShortensPaths(t *testing.T) {
	// The paper's torus runs: wraparound improves the loss of optimized
	// mappings on sparse apps. At minimum, both must produce sane
	// results and the torus must never be dramatically worse.
	app := phonocmap.MustApp("263enc_mp3enc")
	mesh, err := phonocmap.NewMeshNetwork(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := phonocmap.NewTorusNetwork(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	meshProb, err := phonocmap.NewProblem(app, mesh, phonocmap.MinimizeLoss)
	if err != nil {
		t.Fatal(err)
	}
	torusProb, err := phonocmap.NewProblem(app, torus, phonocmap.MinimizeLoss)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := phonocmap.Optimize(meshProb, "rpbla", 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := phonocmap.Optimize(torusProb, "rpbla", 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Score.WorstLossDB >= 0 || tres.Score.WorstLossDB >= 0 {
		t.Error("non-negative losses")
	}
	if tres.Score.WorstLossDB < mres.Score.WorstLossDB-1.0 {
		t.Errorf("torus loss %v dramatically worse than mesh %v", tres.Score.WorstLossDB, mres.Score.WorstLossDB)
	}
}

func TestRunExperiment(t *testing.T) {
	exp := phonocmap.Experiment{
		App:       phonocmap.AppSpec{Builtin: "PIP"},
		Arch:      phonocmap.ArchSpec{Topology: "mesh", Width: 3, Height: 3, Router: "crux", Routing: "xy"},
		Objective: "loss",
		Algorithm: "rs",
		Budget:    200,
		Seed:      5,
	}
	res, err := phonocmap.RunExperiment(exp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "rs" || res.Evals != 200 {
		t.Errorf("result: %+v", res)
	}
	bad := exp
	bad.Objective = "latency"
	if _, err := phonocmap.RunExperiment(bad); err == nil {
		t.Error("accepted unknown objective")
	}
	bad = exp
	bad.App = phonocmap.AppSpec{Builtin: "nope"}
	if _, err := phonocmap.RunExperiment(bad); err == nil {
		t.Error("accepted unknown app")
	}
}

func TestRandomMappingAndEvaluate(t *testing.T) {
	app := phonocmap.MustApp("VOPD")
	net, err := phonocmap.NewMeshNetwork(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := phonocmap.NewProblem(app, net, phonocmap.MaximizeSNR)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	m, err := phonocmap.RandomMapping(prob, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := phonocmap.Evaluate(prob, m)
	if err != nil {
		t.Fatal(err)
	}
	if s.WorstLossDB >= 0 || s.WorstSNRDB <= 0 {
		t.Errorf("implausible score %+v", s)
	}
}

func TestNewCustomMesh(t *testing.T) {
	net, err := phonocmap.NewCustomMesh(3, 3, 1.0, "crossbar", "yx")
	if err != nil {
		t.Fatal(err)
	}
	if net.Router().Name() != "crossbar" || net.Routing().Name() != "yx" {
		t.Errorf("components: %s", net.String())
	}
	if _, err := phonocmap.NewCustomMesh(3, 3, -1, "crux", "xy"); err == nil {
		t.Error("accepted negative die size")
	}
}

func TestSimulateFacade(t *testing.T) {
	app := phonocmap.MustApp("MWD")
	net, err := phonocmap.NewMeshNetwork(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := identityMapping(app.NumTasks())
	st, err := phonocmap.Simulate(net, app, m, phonocmap.SimConfig{DurationNs: 50_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.PacketsDelivered == 0 || st.ThroughputGbps <= 0 {
		t.Errorf("simulation produced nothing: %+v", st)
	}
}

func TestPowerFacade(t *testing.T) {
	b := phonocmap.DefaultPowerBudget()
	rep, err := phonocmap.AssessPower(b, phonocmap.Score{WorstLossDB: -3, WorstSNRDB: 25})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Error("3 dB loss infeasible under default budget")
	}
	if _, err := phonocmap.AssessPower(b, phonocmap.Score{WorstLossDB: 1}); err == nil {
		t.Error("accepted positive loss")
	}
}

func TestWDMFacade(t *testing.T) {
	app := phonocmap.MustApp("MPEG-4")
	net, err := phonocmap.NewMeshNetwork(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := identityMapping(app.NumTasks())
	alloc, err := phonocmap.AllocateWavelengths(net, app, m)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Channels < 1 {
		t.Fatalf("allocation: %+v", alloc)
	}
	loss, snr, err := phonocmap.EvaluateWDM(net, app, m, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if loss >= 0 || snr <= 0 {
		t.Errorf("WDM metrics: loss %v, snr %v", loss, snr)
	}
}

func TestParetoExploreFacade(t *testing.T) {
	app := phonocmap.MustApp("PIP")
	net, err := phonocmap.NewMeshNetwork(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := phonocmap.NewProblem(app, net, phonocmap.MaximizeSNR)
	if err != nil {
		t.Fatal(err)
	}
	front, err := phonocmap.ParetoExplore(prob, "rs", 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	for i := 1; i < len(front); i++ {
		if front[i].WorstLossDB > front[i-1].WorstLossDB {
			t.Error("front not sorted by loss quality")
		}
	}
	if _, err := phonocmap.ParetoExplore(prob, "nope", 10, 1); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

func TestRobustnessFacade(t *testing.T) {
	app := phonocmap.MustApp("PIP")
	net, err := phonocmap.NewMeshNetwork(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := identityMapping(app.NumTasks())
	vr, err := phonocmap.AssessVariation(net, app, m, 5, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Samples != 5 || vr.Loss.Count() != 5 {
		t.Errorf("variation: %+v", vr)
	}
	// Crux cannot do BFS detours: the failure analysis must refuse.
	if _, err := phonocmap.AssessLinkFailures(net, app, m); err == nil {
		t.Error("accepted Crux for link-failure analysis")
	}
	cyg, err := phonocmap.NewNetwork(phonocmap.ArchSpec{
		Topology: "mesh", Width: 3, Height: 3, Router: "cygnus", Routing: "bfs",
	})
	if err != nil {
		t.Fatal(err)
	}
	failures, err := phonocmap.AssessLinkFailures(cyg, app, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 12 {
		t.Errorf("failures = %d, want 12 undirected links", len(failures))
	}
}

func TestWeightedObjectiveFacade(t *testing.T) {
	app := phonocmap.MustApp("VOPD")
	net, err := phonocmap.NewMeshNetwork(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := phonocmap.NewProblem(app, net, phonocmap.MinimizeWeightedLoss)
	if err != nil {
		t.Fatal(err)
	}
	res, err := phonocmap.Optimize(prob, "rpbla", 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score.AvgLossDB >= 0 {
		t.Errorf("AvgLossDB = %v", res.Score.AvgLossDB)
	}
}

func identityMapping(n int) phonocmap.Mapping {
	m := make(phonocmap.Mapping, n)
	for i := range m {
		m[i] = phonocmap.TileID(i)
	}
	return m
}

func TestDefaultParamsFacade(t *testing.T) {
	p := phonocmap.DefaultParams()
	if p.CrossingLoss != -0.04 || p.CrossingCrosstalk != -40 {
		t.Errorf("DefaultParams not Table I: %+v", p)
	}
}

func TestSweepFacade(t *testing.T) {
	spec := phonocmap.SweepSpec{
		Apps:       []phonocmap.AppSpec{{Builtin: "PIP"}},
		Archs:      []phonocmap.ArchSpec{{Topology: "mesh"}},
		Objectives: []string{"snr", "loss"},
		Algorithms: []string{"rs"},
		Budgets:    []int{120},
		Seeds:      []int64{1},
	}
	cells, err := phonocmap.ExpandSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	results, err := phonocmap.RunSweep(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %s: %v", r.Cell.Label(), r.Err)
		}
		if r.Run.Evals != 120 {
			t.Errorf("cell %s spent %d evals, want 120", r.Cell.Label(), r.Run.Evals)
		}
		// Every cell result must verify against a fresh problem — the
		// sweep path produces real reproducible mappings.
		prob, err := phonocmap.NewProblem(phonocmap.MustApp("PIP"), mustMesh(t, 3, 3), objectiveOf(t, r.Cell.Objective))
		if err != nil {
			t.Fatal(err)
		}
		if err := phonocmap.Verify(prob, r.Run); err != nil {
			t.Errorf("cell %s: %v", r.Cell.Label(), err)
		}
	}
	rows := phonocmap.SweepTable(results)
	if len(rows) != 1 || rows[0].App != "PIP" {
		t.Fatalf("table rows = %+v", rows)
	}
	cell := rows[0].Mesh["rs"]
	if cell.SNRDB <= 0 || cell.LossDB >= 0 {
		t.Errorf("table cell = %+v", cell)
	}
	if pts := phonocmap.SweepBudgetCurves(results); len(pts) != 2 {
		t.Errorf("budget curve points = %d, want 2", len(pts))
	}
	if fronts := phonocmap.SweepParetoFronts(results); len(fronts["PIP"]) == 0 {
		t.Error("empty Pareto front")
	}
}

// TestFacadeCancelledRunsCarryNoReport pins the one cancellation policy
// on the facade: a search its context stopped keeps its best-so-far
// mapping but no analysis report, and the sweep aggregators leave it out.
// The budgets cannot finish, and the cancel lands well after compile, so
// every run is a real truncated one.
func TestFacadeCancelledRunsCarryNoReport(t *testing.T) {
	const budget = 50_000_000
	analyses := &phonocmap.AnalysesSpec{WDM: &phonocmap.WDMSpec{}}
	afterCompile := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 300*time.Millisecond)
	}

	ctx, cancel := afterCompile()
	res, err := phonocmap.RunScenario(ctx, phonocmap.Scenario{
		App: phonocmap.AppSpec{Builtin: "VOPD"}, Algorithm: "rs", Budget: budget, Analyses: analyses,
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Run.Cancelled {
		t.Fatalf("run spent %d of %d evaluations without being cancelled", res.Run.Evals, budget)
	}
	if res.Report != nil {
		t.Errorf("cancelled RunScenario carries a report: %+v", res.Report)
	}

	ctx, cancel = afterCompile()
	results, err := phonocmap.RunSweep(ctx, phonocmap.SweepSpec{
		Apps:       []phonocmap.AppSpec{{Builtin: "VOPD"}},
		Archs:      []phonocmap.ArchSpec{{Topology: "mesh"}, {Topology: "torus"}},
		Algorithms: []string{"rs"},
		Budgets:    []int{budget},
		Analyses:   analyses,
	}, 2)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, r := range results {
		if r.Err != nil || !r.Run.Cancelled {
			continue
		}
		cancelled++
		if r.Report != nil {
			t.Errorf("cancelled cell %s carries a report", r.Cell.Label())
		}
	}
	if cancelled == 0 {
		t.Fatalf("no cell ended as a cancelled run: %+v", results)
	}
	if rows := phonocmap.SweepTable(results); len(rows) != 0 {
		t.Errorf("SweepTable reports cancelled runs: %+v", rows)
	}
}

func mustMesh(t *testing.T, w, h int) *phonocmap.Network {
	t.Helper()
	net, err := phonocmap.NewMeshNetwork(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func objectiveOf(t *testing.T, name string) phonocmap.Objective {
	t.Helper()
	switch name {
	case "snr":
		return phonocmap.MaximizeSNR
	case "loss":
		return phonocmap.MinimizeLoss
	default:
		t.Fatalf("unexpected objective %q", name)
		return phonocmap.MaximizeSNR
	}
}
