package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"phonocmap/internal/core"
	"phonocmap/internal/runner"
	"phonocmap/internal/search"
	"phonocmap/internal/sweep"
)

// TestGoldenOutputs pins the printed output of table2, ablation and fig3
// byte for byte at small settings, so any change to a printed figure or
// to the layout fails here.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden string
		cmd    func(w *bytes.Buffer) error
	}{
		{"table2.golden", func(w *bytes.Buffer) error {
			return cmdTable2(w, []string{"-budget", "200", "-apps", "PIP,MWD", "-algos", "rs,rpbla"})
		}},
		{"ablation.golden", func(w *bytes.Buffer) error {
			return cmdAblation(w, []string{"-app", "PIP"})
		}},
		{"fig3.golden", func(w *bytes.Buffer) error {
			return cmdFig3(w, []string{"-samples", "2000", "-apps", "PIP,MWD"})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var got bytes.Buffer
			if err := tc.cmd(&got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output diverges from testdata/%s:\n got:\n%s\n want:\n%s", tc.golden, got.Bytes(), want)
			}
		})
	}
}

// table2Row runs the Table II grid for one application in-process.
func table2Row(t *testing.T, app string, algos []string, budget int, seed int64) sweep.TableRow {
	t.Helper()
	res, err := runGrid(runner.NewLocal(), table2Grid([]string{app}, algos, budget, seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table) != 1 {
		t.Fatalf("table2 %s: %d rows", app, len(res.Table))
	}
	return res.Table[0]
}

func TestPaperAppsMatchesTableII(t *testing.T) {
	apps := paperApps()
	if len(apps) != 8 {
		t.Fatalf("paperApps = %d entries, want 8", len(apps))
	}
	want := map[string]bool{
		"263dec_mp3dec": true, "263enc_mp3enc": true, "DVOPD": true,
		"MPEG-4": true, "MWD": true, "PIP": true, "VOPD": true, "Wavelet": true,
	}
	for _, a := range apps {
		if !want[a] {
			t.Errorf("unexpected app %q", a)
		}
	}
}

func TestFig3SmallSample(t *testing.T) {
	res, err := Fig3("PIP", Fig3Options{Samples: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "PIP" || res.Samples != 500 {
		t.Errorf("metadata: %+v", res)
	}
	if res.SNRHist.Total() != 500 || res.LossHist.Total() != 500 {
		t.Errorf("hist totals: %d, %d", res.SNRHist.Total(), res.LossHist.Total())
	}
	// The paper's headline: random mappings spread widely. Demand at
	// least 3 dB of SNR spread and 0.3 dB of loss spread over 500 draws.
	if res.SNRSummary.Max()-res.SNRSummary.Min() < 3 {
		t.Errorf("SNR spread too small: %v", res.SNRSummary.String())
	}
	if res.LossSummary.Max()-res.LossSummary.Min() < 0.3 {
		t.Errorf("loss spread too small: %v", res.LossSummary.String())
	}
	// All losses negative, all SNRs positive for this workload.
	if res.LossSummary.Max() >= 0 {
		t.Errorf("non-negative loss observed: %v", res.LossSummary.Max())
	}
	if res.SNRSummary.Min() <= 0 {
		t.Errorf("non-positive SNR observed: %v", res.SNRSummary.Min())
	}
}

func TestFig3Deterministic(t *testing.T) {
	a, err := Fig3("MWD", Fig3Options{Samples: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig3("MWD", Fig3Options{Samples: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.SNRSummary.Mean() != b.SNRSummary.Mean() || a.LossSummary.Mean() != b.LossSummary.Mean() {
		t.Error("same seed produced different distributions")
	}
	c, err := Fig3("MWD", Fig3Options{Samples: 200, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.SNRSummary.Mean() == c.SNRSummary.Mean() {
		t.Error("different seeds produced identical distributions (suspicious)")
	}
}

func TestFig3UnknownApp(t *testing.T) {
	if _, err := Fig3("nope", Fig3Options{Samples: 10}); err == nil {
		t.Error("accepted unknown app")
	}
}

func TestTable2RowShape(t *testing.T) {
	row := table2Row(t, "PIP", search.PaperNames(), 300, 2)
	if row.App != "PIP" {
		t.Errorf("App = %q", row.App)
	}
	for _, algo := range []string{"rs", "ga", "rpbla"} {
		for name, cells := range map[string]map[string]sweep.TableCell{"mesh": row.Mesh, "torus": row.Torus} {
			cell, ok := cells[algo]
			if !ok {
				t.Fatalf("missing %s/%s cell", name, algo)
			}
			if cell.LossDB >= 0 || math.IsInf(cell.LossDB, 0) {
				t.Errorf("%s/%s loss = %v", name, algo, cell.LossDB)
			}
			if cell.SNRDB <= 0 {
				t.Errorf("%s/%s snr = %v", name, algo, cell.SNRDB)
			}
			if cell.Evals <= 0 || cell.Evals > 300 {
				t.Errorf("%s/%s evals = %d, budget 300", name, algo, cell.Evals)
			}
		}
	}
}

func TestTable2QualitativeClaims(t *testing.T) {
	// The comparison claims of the paper, on a reduced budget to keep the
	// test fast: on VOPD (a mid-size app where RS struggles), both GA and
	// R-PBLA beat RS for the SNR objective on the mesh.
	row := table2Row(t, "VOPD", search.PaperNames(), 4000, 1)
	rs := row.Mesh["rs"].SNRDB
	ga := row.Mesh["ga"].SNRDB
	rpbla := row.Mesh["rpbla"].SNRDB
	if ga <= rs {
		t.Errorf("GA snr %v did not beat RS %v on VOPD mesh", ga, rs)
	}
	if rpbla <= rs {
		t.Errorf("R-PBLA snr %v did not beat RS %v on VOPD mesh", rpbla, rs)
	}
}

func TestTable2ScalesWithNetworkSize(t *testing.T) {
	// "both the crosstalk noise and the power loss scale up with the
	// network size: the worst-case values are reached ... DVOPD".
	small := table2Row(t, "PIP", search.PaperNames(), 500, 1)
	big := table2Row(t, "DVOPD", search.PaperNames(), 500, 1)
	if big.Mesh["rs"].LossDB >= small.Mesh["rs"].LossDB {
		t.Errorf("DVOPD loss %v not worse than PIP %v", big.Mesh["rs"].LossDB, small.Mesh["rs"].LossDB)
	}
	if big.Mesh["rs"].SNRDB >= small.Mesh["rs"].SNRDB {
		t.Errorf("DVOPD snr %v not worse than PIP %v", big.Mesh["rs"].SNRDB, small.Mesh["rs"].SNRDB)
	}
}

func TestBudgetAblationMonotoneish(t *testing.T) {
	res, err := runGrid(runner.NewLocal(), budgetAblationGrid("MWD", []int{200, 2000}, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("results = %d", len(res.Cells))
	}
	// More budget must not yield a worse SNR for the same seed (the
	// incumbent only improves as evaluations accumulate and the larger
	// budget replays the smaller run's prefix).
	if res.Cells[1].Score.WorstSNRDB < res.Cells[0].Score.WorstSNRDB {
		t.Errorf("budget 2000 snr %v worse than budget 200 %v", res.Cells[1].Score.WorstSNRDB, res.Cells[0].Score.WorstSNRDB)
	}
}

func TestRouterAblation(t *testing.T) {
	res, err := runGrid(runner.NewLocal(), routerAblationGrid("PIP", 400, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || res.Cells[0].Cell.Arch.Router != "crux" || res.Cells[1].Cell.Arch.Router != "crossbar" {
		t.Fatalf("results = %+v", res.Cells)
	}
	for _, c := range res.Cells {
		if c.Score.WorstLossDB >= 0 {
			t.Errorf("%s loss %v not negative", c.Cell.Arch.Router, c.Score.WorstLossDB)
		}
	}
}

func TestFig3AllMatchesSequential(t *testing.T) {
	apps := []string{"PIP", "MWD"}
	opts := Fig3Options{Samples: 150, Seed: 4}
	all, err := Fig3All(apps, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("results = %d", len(all))
	}
	for i, app := range apps {
		if all[i] == nil || all[i].App != app {
			t.Fatalf("result %d out of order: %+v", i, all[i])
		}
		single, err := Fig3(app, opts)
		if err != nil {
			t.Fatal(err)
		}
		if all[i].SNRSummary.Mean() != single.SNRSummary.Mean() ||
			all[i].LossSummary.Mean() != single.LossSummary.Mean() {
			t.Errorf("%s: sharded Fig3 diverges from sequential", app)
		}
	}
	if _, err := Fig3All([]string{"PIP", "nope"}, opts, 2); err == nil {
		t.Error("Fig3All accepted an unknown app")
	}
}

// TestTable2MatchesDirectExplorationLoop pins the Table II grid run
// through the runner to the original hand-rolled Table II loop: for
// every cell, one core.NewExploration run per (topology, algorithm,
// objective) with the grid's seed. If normalization or seed derivation
// ever drifts, the values diverge here.
func TestTable2MatchesDirectExplorationLoop(t *testing.T) {
	const (
		app    = "PIP"
		budget = 250
		seed   = 6
	)
	algos := []string{"rs", "rpbla"}
	row := table2Row(t, app, algos, budget, seed)
	for _, torus := range []bool{false, true} {
		cells := row.Mesh
		if torus {
			cells = row.Torus
		}
		for _, algo := range algos {
			for _, obj := range []core.Objective{core.MaximizeSNR, core.MinimizeLoss} {
				prob, err := problemFor(app, torus, obj)
				if err != nil {
					t.Fatal(err)
				}
				s, err := search.New(algo)
				if err != nil {
					t.Fatal(err)
				}
				ex, err := core.NewExploration(prob, core.Options{Budget: budget, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				res, err := ex.Run(s)
				if err != nil {
					t.Fatal(err)
				}
				got := cells[algo]
				if obj == core.MaximizeSNR && got.SNRDB != res.Score.WorstSNRDB {
					t.Errorf("torus=%v %s snr: sweep %v != direct %v", torus, algo, got.SNRDB, res.Score.WorstSNRDB)
				}
				if obj == core.MinimizeLoss && got.LossDB != res.Score.WorstLossDB {
					t.Errorf("torus=%v %s loss: sweep %v != direct %v", torus, algo, got.LossDB, res.Score.WorstLossDB)
				}
			}
		}
	}
}

func TestTable2FullDriver(t *testing.T) {
	// The full-table grid at a tiny budget with a restricted app and
	// algorithm set, through the same runGrid path as the command.
	res, err := runGrid(runner.NewLocal(), table2Grid([]string{"PIP", "MWD"}, []string{"rs", "rpbla"}, 100, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table) != 2 {
		t.Fatalf("rows = %d", len(res.Table))
	}
	for _, row := range res.Table {
		for _, algo := range []string{"rs", "rpbla"} {
			if _, ok := row.Mesh[algo]; !ok {
				t.Errorf("%s missing mesh cell for %s", row.App, algo)
			}
			if _, ok := row.Torus[algo]; !ok {
				t.Errorf("%s missing torus cell for %s", row.App, algo)
			}
		}
	}
	if _, err := runGrid(runner.NewLocal(), table2Grid([]string{"nope"}, search.PaperNames(), 10, 1), 0); err == nil {
		t.Error("table2 grid accepted unknown app")
	}
}
