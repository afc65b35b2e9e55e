package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
)

func builtin(name string) config.AppSpec { return config.AppSpec{Builtin: name} }

func TestExpandGridShapeAndOrder(t *testing.T) {
	spec := Spec{
		Apps:       []config.AppSpec{builtin("PIP"), builtin("MWD")},
		Archs:      []config.ArchSpec{{Topology: "mesh"}, {Topology: "torus"}},
		Objectives: []string{"snr", "loss"},
		Algorithms: []string{"rs", "rpbla"},
		Budgets:    []int{100, 200},
		Seeds:      []int64{1, 2},
	}
	if got := spec.Size(); got != 2*2*2*2*2*2 {
		t.Fatalf("Size = %d, want 64", got)
	}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 64 {
		t.Fatalf("expanded %d cells, want 64", len(cells))
	}
	// Deterministic ordering: apps outermost, seeds innermost.
	if cells[0].AppName() != "PIP" || cells[32].AppName() != "MWD" {
		t.Errorf("app ordering broken: %s, %s", cells[0].AppName(), cells[32].AppName())
	}
	if cells[0].Seed != 1 || cells[1].Seed != 2 {
		t.Errorf("seed is not the innermost dimension: %d, %d", cells[0].Seed, cells[1].Seed)
	}
	// Architecture auto-sizing: PIP (8 tasks) on 3x3, MWD (12) on 4x4.
	if cells[0].Arch.Width != 3 || cells[0].Arch.Height != 3 {
		t.Errorf("PIP arch = %dx%d, want 3x3", cells[0].Arch.Width, cells[0].Arch.Height)
	}
	if cells[32].Arch.Width != 4 || cells[32].Arch.Height != 4 {
		t.Errorf("MWD arch = %dx%d, want 4x4", cells[32].Arch.Width, cells[32].Arch.Height)
	}
	for _, c := range cells {
		if c.Islands != 1 {
			t.Fatalf("default islands = %d, want 1", c.Islands)
		}
	}
}

func TestExpandDefaults(t *testing.T) {
	cells, err := Expand(Spec{Apps: []config.AppSpec{builtin("VOPD")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("expanded %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Arch.Topology != "mesh" || c.Arch.Width != 4 || c.Arch.Height != 4 ||
		c.Arch.Router != "crux" || c.Arch.Routing != "xy" {
		t.Errorf("default arch = %+v", c.Arch)
	}
	if c.Objective != "snr" || c.Algorithm != "rpbla" || c.Budget != 20000 || c.Seed != 1 {
		t.Errorf("default cell = %+v", c)
	}
}

func TestExpandRejectsBadGrids(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no apps", Spec{}},
		{"unknown app", Spec{Apps: []config.AppSpec{builtin("NOPE")}}},
		{"unknown objective", Spec{Apps: []config.AppSpec{builtin("PIP")}, Objectives: []string{"nope"}}},
		{"unknown algorithm", Spec{Apps: []config.AppSpec{builtin("PIP")}, Algorithms: []string{"nope"}}},
		{"negative budget", Spec{Apps: []config.AppSpec{builtin("PIP")}, Budgets: []int{-1}}},
		{"arch too small", Spec{
			Apps:  []config.AppSpec{builtin("VOPD")},
			Archs: []config.ArchSpec{{Topology: "mesh", Width: 2, Height: 2}},
		}},
		{"negative islands", Spec{Apps: []config.AppSpec{builtin("PIP")}, Islands: -2}},
	}
	for _, c := range cases {
		if _, err := Expand(c.spec); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSizeSaturatesInsteadOfOverflowing(t *testing.T) {
	many := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "snr"
		}
		return out
	}
	spec := Spec{
		Apps:       make([]config.AppSpec, 4096),
		Archs:      make([]config.ArchSpec, 4096),
		Objectives: many(4096),
		Algorithms: many(4096),
		Budgets:    make([]int, 4096),
		Seeds:      make([]int64, 4096),
	}
	// 4096^6 = 2^72 wraps negative in int64 arithmetic; the saturating
	// product must instead read as enormous so limit checks reject it.
	if got := spec.Size(); got != math.MaxInt {
		t.Fatalf("Size = %d, want saturation at MaxInt", got)
	}
	if _, err := Expand(spec); err == nil {
		t.Fatal("Expand accepted a 2^72-cell grid")
	}
	// A merely-large grid is also refused by the engine ceiling.
	big := Spec{
		Apps:  make([]config.AppSpec, 2048),
		Seeds: make([]int64, 2048),
	}
	if got := big.Size(); got != 2048*2048 {
		t.Fatalf("Size = %d, want %d", got, 2048*2048)
	}
	if _, err := Expand(big); err == nil {
		t.Fatal("Expand accepted a grid above MaxExpandCells")
	}
}

func TestRunExecutesEveryCellDeterministically(t *testing.T) {
	spec := Spec{
		Apps:       []config.AppSpec{builtin("PIP")},
		Archs:      []config.ArchSpec{{Topology: "mesh"}, {Topology: "torus"}},
		Objectives: []string{"snr", "loss"},
		Algorithms: []string{"rs"},
		Budgets:    []int{120},
		Seeds:      []int64{3},
	}
	cells, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Int32
	run := func(workers int) []Result {
		results, err := Run(cells, NewCellRunner(nil), Options{
			Workers:    workers,
			OnCellDone: func(Result) { done.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	seq := run(1)
	par := run(4)
	if int(done.Load()) != 2*len(cells) {
		t.Errorf("OnCellDone fired %d times, want %d", done.Load(), 2*len(cells))
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("cell %d failed: %v / %v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Run.Score != par[i].Run.Score || !seq[i].Run.Mapping.Equal(par[i].Run.Mapping) {
			t.Errorf("cell %d: sequential and parallel execution diverge", i)
		}
		if seq[i].Run.Evals != 120 {
			t.Errorf("cell %d spent %d evals, want 120", i, seq[i].Run.Evals)
		}
	}
}

func TestRunPerCellFailureIsolation(t *testing.T) {
	cells := []Cell{{Seed: 0}, {Seed: 1}, {Seed: 2}}
	boom := errors.New("boom")
	results, err := Run(cells, func(_ context.Context, c Cell) (core.RunResult, *scenario.Report, error) {
		if c.Seed == 1 {
			return core.RunResult{}, nil, boom
		}
		return core.RunResult{Evals: int(c.Seed) + 1}, nil, nil
	}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy cells poisoned: %v / %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("failed cell error = %v, want boom", results[1].Err)
	}
	if results[0].Run.Evals != 1 || results[2].Run.Evals != 3 {
		t.Errorf("results misplaced: %+v", results)
	}
}

func TestRunCancellationSkipsUnstartedCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	block := make(chan struct{})
	var once sync.Once
	cells := make([]Cell, 16)
	results, err := Run(cells, func(cellCtx context.Context, _ Cell) (core.RunResult, *scenario.Report, error) {
		started.Add(1)
		once.Do(func() {
			cancel() // cancel the sweep from inside the first running cell
			close(block)
		})
		<-block
		if cellCtx.Err() != nil {
			return core.RunResult{}, nil, cellCtx.Err()
		}
		return core.RunResult{Evals: 1}, nil, nil
	}, Options{Workers: 1, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled != len(cells) {
		t.Errorf("%d cells report cancellation, want %d", cancelled, len(cells))
	}
	if started.Load() != 1 {
		t.Errorf("%d cells started after cancellation, want 1", started.Load())
	}
}

func TestForEachShardsAndStopsOnError(t *testing.T) {
	var hits atomic.Int32
	if err := ForEach(context.Background(), 20, 4, func(_ context.Context, i int) error {
		hits.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 20 {
		t.Errorf("ForEach ran %d items, want 20", hits.Load())
	}

	boom := errors.New("boom")
	var ran atomic.Int32
	err := ForEach(context.Background(), 1000, 1, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("ForEach error = %v, want boom", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("ForEach did not stop early (%d items ran)", n)
	}
}

func TestRunCellIslandsMode(t *testing.T) {
	cells, err := Expand(Spec{
		Apps:       []config.AppSpec{builtin("PIP")},
		Algorithms: []string{"rs"},
		Budgets:    []int{80},
		Seeds:      []int64{5},
		Islands:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := NewCellRunner(nil)(context.Background(), cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 80 {
		t.Errorf("winning island evals = %d, want 80", res.Evals)
	}
	// The islands winner is at least as good as the plain single-seed run
	// with the same base seed (islands include that seed).
	single := cells[0]
	single.Islands = 1
	sres, _, err := NewCellRunner(nil)(context.Background(), single)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Score.Better(res.Score) {
		t.Errorf("islands result %v worse than its own base seed %v", res.Score.Cost, sres.Score.Cost)
	}
}

func TestAggregators(t *testing.T) {
	mk := func(app, topoName, obj, algo string, budget int, snr, loss float64, idx int) Result {
		return Result{
			Index: idx,
			Cell: Cell{
				App:       builtin(app),
				Arch:      config.ArchSpec{Topology: topoName},
				Objective: obj,
				Algorithm: algo,
				Budget:    budget,
			},
			Run: core.RunResult{
				Score:   core.Score{Cost: -snr, WorstSNRDB: snr, WorstLossDB: loss},
				Mapping: core.Mapping{0},
				Evals:   budget,
			},
		}
	}
	results := []Result{
		mk("PIP", "mesh", "snr", "rs", 100, 20, -2, 0),
		mk("PIP", "mesh", "loss", "rs", 100, 19, -1.5, 1),
		mk("PIP", "torus", "snr", "rs", 100, 22, -1.8, 2),
		mk("PIP", "mesh", "snr", "rpbla", 100, 25, -1.2, 3),
		{Index: 4, Err: errors.New("failed cell must be skipped")},
	}
	rows := Table(results)
	if len(rows) != 1 || rows[0].App != "PIP" {
		t.Fatalf("rows = %+v", rows)
	}
	if got := rows[0].Mesh["rs"]; got.SNRDB != 20 || got.LossDB != -1.5 {
		t.Errorf("mesh/rs cell = %+v", got)
	}
	if got := rows[0].Torus["rs"]; got.SNRDB != 22 || got.LossDB != 0 {
		t.Errorf("torus/rs cell = %+v", got)
	}
	if got := rows[0].Mesh["rpbla"]; got.SNRDB != 25 {
		t.Errorf("mesh/rpbla cell = %+v", got)
	}

	// Multi-seed/budget grids: the table keeps the BEST score per slot,
	// not whichever cell happened to come last.
	multi := []Result{
		mk("PIP", "mesh", "snr", "rs", 100, 24, -2, 0),
		mk("PIP", "mesh", "snr", "rs", 100, 21, -2, 1), // later but worse
		mk("PIP", "mesh", "loss", "rs", 100, 20, -1.9, 2),
		mk("PIP", "mesh", "loss", "rs", 100, 20, -1.1, 3), // later and better (loss closer to 0)
	}
	// mk derives Cost from -snr only; fix the loss cells' costs to match
	// the loss objective (-WorstLossDB).
	multi[2].Run.Score.Cost = 1.9
	multi[3].Run.Score.Cost = 1.1
	mrows := Table(multi)
	if got := mrows[0].Mesh["rs"]; got.SNRDB != 24 || got.LossDB != -1.1 {
		t.Errorf("multi-seed table kept non-best cells: %+v", got)
	}

	curve := BudgetCurves([]Result{
		mk("PIP", "mesh", "snr", "rs", 400, 21, -2, 0),
		mk("PIP", "mesh", "snr", "rs", 100, 20, -2, 1),
	})
	if len(curve) != 2 || curve[0].Budget != 100 || curve[1].Budget != 400 {
		t.Errorf("budget curve not sorted ascending: %+v", curve)
	}

	fronts := ParetoFronts(results)
	if len(fronts["PIP"]) == 0 {
		t.Error("empty Pareto front")
	}
}

func TestCellLabelAndCompile(t *testing.T) {
	cells, err := Expand(Spec{Apps: []config.AppSpec{builtin("PIP")}, Budgets: []int{10}})
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Label() == "" {
		t.Error("empty label")
	}
	comp, err := cells[0].Compile()
	if err != nil {
		t.Fatal(err)
	}
	if prob := comp.Problem; prob.NumTasks() != 8 || prob.NumTiles() != 9 {
		t.Errorf("PIP problem = %d tasks on %d tiles", prob.NumTasks(), prob.NumTiles())
	}
	if s := fmt.Sprint(cells[0]); s == "" {
		t.Error("cells must be printable plain data")
	}
}

// TestExpandNormalizesAnalyses: the grid's analyses block is normalized
// once per cell through the scenario compiler, every cell carries its
// own detached copy, and invalid combinations (link failures on a
// turn-restricted router) are rejected at expansion time.
func TestExpandNormalizesAnalyses(t *testing.T) {
	cells, err := Expand(Spec{
		Apps:     []config.AppSpec{builtin("PIP")},
		Seeds:    []int64{1, 2},
		Analyses: &scenario.AnalysesSpec{Robustness: &scenario.RobustnessSpec{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c.Analyses == nil || c.Analyses.Robustness == nil || c.Analyses.Robustness.Samples != 50 {
			t.Fatalf("cell %d analyses not normalized: %+v", i, c.Analyses)
		}
	}
	if cells[0].Analyses == cells[1].Analyses {
		t.Error("cells share one analyses pointer")
	}

	// Link-failure analysis needs an all-turn router; the default crux
	// grid must be rejected up front.
	if _, err := Expand(Spec{
		Apps:     []config.AppSpec{builtin("PIP")},
		Analyses: &scenario.AnalysesSpec{LinkFailures: &scenario.LinkFailuresSpec{}},
	}); err == nil {
		t.Error("link-failure analyses on crux accepted")
	}
}

// TestRunCellCarriesReport: the local runner executes the cell's
// analyses and returns the report alongside the run.
func TestRunCellCarriesReport(t *testing.T) {
	cells, err := Expand(Spec{
		Apps:       []config.AppSpec{builtin("PIP")},
		Algorithms: []string{"rs"},
		Budgets:    []int{120},
		Analyses:   &scenario.AnalysesSpec{Power: &scenario.PowerSpec{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	run, rep, err := NewCellRunner(nil)(context.Background(), cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Power == nil {
		t.Fatalf("report missing: %+v", rep)
	}
	if rep.Power.ChannelPowerDBm != -20-run.Score.WorstLossDB {
		t.Errorf("report inconsistent with run: %v vs loss %v", rep.Power.ChannelPowerDBm, run.Score.WorstLossDB)
	}
}

// TestAnalysisSummaryAndAnnotatedPareto: the analysis-derived
// aggregation columns fold deterministically.
func TestAnalysisSummaryAndAnnotatedPareto(t *testing.T) {
	rep := func(feasible bool, worstSNR, satLoad float64, channels int) *scenario.Report {
		return &scenario.Report{
			Power:      &scenario.PowerReport{Feasible: feasible},
			Robustness: &scenario.RobustnessReport{WorstSNRDB: worstSNR},
			Sim:        &scenario.SimReport{SaturationLoad: satLoad},
			WDM:        &scenario.WDMReport{Channels: channels},
		}
	}
	mkRes := func(idx int, app string, loss, snr float64, r *scenario.Report) Result {
		return Result{
			Index:  idx,
			Cell:   Cell{App: builtin(app), Objective: "snr"},
			Run:    core.RunResult{Mapping: core.Mapping{0}, Score: core.Score{Cost: -snr, WorstLossDB: loss, WorstSNRDB: snr}},
			Report: r,
		}
	}
	results := []Result{
		mkRes(0, "PIP", -2, 20, rep(true, 15, 4, 2)),
		mkRes(1, "PIP", -1, 18, rep(false, 12, 2, 3)),
		mkRes(2, "PIP", -3, 22, nil), // no report
		{Index: 3, Cell: Cell{App: builtin("PIP")}, Err: errors.New("boom")},
	}
	rows := AnalysisSummary(results)
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.Cells != 3 || r.Reports != 2 || r.PowerAssessed != 2 {
		t.Errorf("counters %+v", r)
	}
	if r.PowerFeasibleFraction != 0.5 {
		t.Errorf("feasible fraction %v, want 0.5", r.PowerFeasibleFraction)
	}
	if r.WorstVariationSNRDB != 12 {
		t.Errorf("worst variation SNR %v, want 12", r.WorstVariationSNRDB)
	}
	if r.SaturationLoad != 2 {
		t.Errorf("saturation load %v, want 2 (worst cell)", r.SaturationLoad)
	}
	if r.WDMMaxChannels != 3 {
		t.Errorf("wdm max channels %v, want 3", r.WDMMaxChannels)
	}

	fronts := AnnotatedParetoFronts(results)
	entries := fronts["PIP"]
	if len(entries) == 0 {
		t.Fatal("no annotated Pareto entries")
	}
	for _, e := range entries {
		switch e.CellIndex {
		case 0, 1:
			if e.Report == nil {
				t.Errorf("entry for cell %d lost its report", e.CellIndex)
			}
		case 2:
			if e.Report != nil {
				t.Errorf("entry for cell 2 gained a report")
			}
		default:
			t.Errorf("entry annotated with unexpected cell %d", e.CellIndex)
		}
	}

	// Apps without any reports still summarize (zero columns, not Inf).
	bare := []Result{mkRes(0, "MWD", -1, 10, nil)}
	rows = AnalysisSummary(bare)
	if rows[0].WorstVariationSNRDB != 0 || rows[0].SaturationLoad != 0 {
		t.Errorf("report-free columns not zeroed: %+v", rows[0])
	}
}
