// Command phonocmap-bench regenerates the paper's evaluation (Section
// III): the Figure 3 random-mapping distributions and the Table II
// algorithm comparison, plus ablations beyond the paper.
//
// Usage:
//
//	phonocmap-bench fig3   [-samples 100000] [-seed 1] [-apps PIP,VOPD] [-csv dir] [-workers N]
//	phonocmap-bench table2 [-budget 20000] [-seed 1] [-apps ...] [-algos rs,ga,rpbla] [-workers N] [-server URL]
//	phonocmap-bench ablation [-app VOPD] [-seed 1]
//	phonocmap-bench perf [-json] [-out BENCH_2026-01-01.json] [-budget 5000]
//
// Defaults reproduce the paper's setup; reduced samples/budgets give
// quick sanity runs. table2 and ablation declare their grids as sweep
// specs and run them through a runner.Runner — in-process, or on a
// phonocmap-serve instance with -server — so -workers shards their cells
// across cores without changing any result (cells are independent
// seeded runs).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"phonocmap/client"
	"phonocmap/internal/config"
	"phonocmap/internal/runner"
	"phonocmap/internal/search"
	"phonocmap/internal/stats"
	"phonocmap/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "fig3":
		err = cmdFig3(os.Stdout, os.Args[2:])
	case "table2":
		err = cmdTable2(os.Stdout, os.Args[2:])
	case "ablation":
		err = cmdAblation(os.Stdout, os.Args[2:])
	case "perf":
		err = cmdPerf(os.Args[2:])
	case "-json":
		// Alias: `phonocmap-bench -json` is `perf -json` — the one-liner
		// CI and scripts use to pipe the perf snapshot to stdout.
		err = cmdPerf(os.Args[1:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "phonocmap-bench: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "phonocmap-bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `phonocmap-bench <command> [flags]

Commands:
  fig3      probability distributions of SNR and loss over random mappings
  table2    RS vs GA vs R-PBLA on mesh and torus, both objectives
  ablation  budget and router ablations (beyond the paper)
  perf      machine-readable perf snapshot (BENCH_<date>.json); -json to stdout`)
}

// paperApps returns the eight applications of the case studies in the
// row order of Table II.
func paperApps() []string {
	return []string{
		"263dec_mp3dec", "263enc_mp3enc", "DVOPD", "MPEG-4",
		"MWD", "PIP", "VOPD", "Wavelet",
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func cmdFig3(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fig3", flag.ExitOnError)
	samples := fs.Int("samples", 100_000, "random mappings per application (paper: 100000)")
	seed := fs.Int64("seed", 1, "random seed")
	bins := fs.Int("bins", 60, "histogram bins")
	apps := fs.String("apps", "", "comma-separated app subset (default: all eight)")
	csvDir := fs.String("csv", "", "write per-app CSV histograms to this directory")
	workers := fs.Int("workers", 0, "apps sampled concurrently (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	list := splitList(*apps)
	if len(list) == 0 {
		list = paperApps()
	}
	fmt.Fprintf(w, "Figure 3: distribution of worst-case SNR and power loss over %d random mappings\n", *samples)
	fmt.Fprintf(w, "architecture: smallest square mesh per app, Crux router, XY routing, Table I parameters\n\n")
	results, err := Fig3All(list, Fig3Options{
		Samples: *samples, Seed: *seed, Bins: *bins,
	}, *workers)
	if err != nil {
		return err
	}
	for i, app := range list {
		res := results[i]
		fmt.Fprintf(w, "== %s ==\n", app)
		fmt.Fprintf(w, "SNR  (dB): %s  zero-noise mappings: %d\n", res.SNRSummary.String(), res.SNRSummary.NonFinite())
		fmt.Fprintf(w, "loss (dB): %s\n", res.LossSummary.String())
		fmt.Fprintln(w, "SNR distribution:")
		fmt.Fprint(w, compactHist(res.SNRHist))
		fmt.Fprintln(w, "loss distribution:")
		fmt.Fprint(w, compactHist(res.LossHist))
		fmt.Fprintln(w)
		if *csvDir != "" {
			if err := writeHistCSV(filepath.Join(*csvDir, "fig3_"+sanitize(app)+"_snr.csv"), res.SNRHist); err != nil {
				return err
			}
			if err := writeHistCSV(filepath.Join(*csvDir, "fig3_"+sanitize(app)+"_loss.csv"), res.LossHist); err != nil {
				return err
			}
		}
	}
	return nil
}

// compactHist renders only the occupied region of a histogram.
func compactHist(h *stats.Histogram) string {
	first, last := -1, -1
	for i := 0; i < h.NumBins(); i++ {
		if h.BinCount(i) > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return "  (no in-range samples)\n"
	}
	full := h.ASCII(50)
	lines := strings.Split(strings.TrimRight(full, "\n"), "\n")
	var b strings.Builder
	for i := first; i <= last; i++ {
		b.WriteString(lines[i])
		b.WriteByte('\n')
	}
	return b.String()
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}

func writeHistCSV(path string, h *stats.Histogram) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "bin_center,count,probability")
	probs := h.Probabilities()
	for i := 0; i < h.NumBins(); i++ {
		fmt.Fprintf(f, "%g,%d,%g\n", h.BinCenter(i), h.BinCount(i), probs[i])
	}
	return nil
}

// table2Grid declares the Table II design-space grid: every app on its
// smallest square mesh and torus, both objectives, every algorithm, one
// budget, one seed.
func table2Grid(apps, algos []string, budget int, seed int64) sweep.Spec {
	specs := make([]config.AppSpec, 0, len(apps))
	for _, name := range apps {
		specs = append(specs, config.AppSpec{Builtin: name})
	}
	return sweep.Spec{
		Apps:       specs,
		Archs:      []config.ArchSpec{{Topology: "mesh"}, {Topology: "torus"}},
		Objectives: []string{"snr", "loss"},
		Algorithms: algos,
		Budgets:    []int{budget},
		Seeds:      []int64{seed},
	}
}

// budgetAblationGrid sweeps R-PBLA's budget on one application: how
// result quality scales with the knob behind the paper's "same running
// time" protocol.
func budgetAblationGrid(app string, budgets []int, seed int64) sweep.Spec {
	return sweep.Spec{
		Apps:       []config.AppSpec{{Builtin: app}},
		Archs:      []config.ArchSpec{{Topology: "mesh"}},
		Objectives: []string{"snr"},
		Algorithms: []string{"rpbla"},
		Budgets:    budgets,
		Seeds:      []int64{seed},
	}
}

// routerAblationGrid compares the Crux router against the crossbar
// baseline on one application with the same optimizer and budget.
func routerAblationGrid(app string, budget int, seed int64) sweep.Spec {
	return sweep.Spec{
		Apps: []config.AppSpec{{Builtin: app}},
		Archs: []config.ArchSpec{
			{Topology: "mesh", Router: "crux"},
			{Topology: "mesh", Router: "crossbar"},
		},
		Objectives: []string{"snr"},
		Algorithms: []string{"rpbla"},
		Budgets:    []int{budget},
		Seeds:      []int64{seed},
	}
}

// runGrid runs a grid through rn and fails on the first failed cell:
// the tables want every cell.
func runGrid(rn runner.Runner, grid sweep.Spec, workers int) (runner.SweepResult, error) {
	res, err := rn.RunSweep(context.Background(), grid, runner.SweepOptions{Workers: workers})
	if err != nil {
		return runner.SweepResult{}, err
	}
	for _, cell := range res.Cells {
		if cell.Error != "" {
			return runner.SweepResult{}, fmt.Errorf("cell %s: %s", cell.Cell.Label(), cell.Error)
		}
	}
	return res, nil
}

func cmdTable2(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	budget := fs.Int("budget", 20_000, "evaluation budget per run (the equal-time proxy)")
	seed := fs.Int64("seed", 1, "random seed")
	apps := fs.String("apps", "", "comma-separated app subset (default: all eight)")
	algos := fs.String("algos", "", "comma-separated algorithms (default: rs,ga,rpbla)")
	workers := fs.Int("workers", 0, "grid cells executed concurrently (0 = GOMAXPROCS; local execution only)")
	server := fs.String("server", "", "phonocmap-serve URL to execute the grid on (default: in-process)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *budget == 0 {
		*budget = 20_000
	}
	if *seed == 0 {
		*seed = 1
	}
	algoList := splitList(*algos)
	if len(algoList) == 0 {
		algoList = search.PaperNames()
	}
	appList := splitList(*apps)
	if len(appList) == 0 {
		appList = paperApps()
	}

	fmt.Fprintf(w, "Table II: algorithms comparison (budget %d evaluations per run, seed %d)\n", *budget, *seed)
	fmt.Fprintf(w, "smallest square topology per app, Crux router, XY routing; SNR and Loss in dB\n\n")
	header := fmt.Sprintf("%-15s |", "Application")
	for _, topoName := range []string{"mesh", "torus"} {
		for _, a := range algoList {
			header += fmt.Sprintf(" %-17s|", fmt.Sprintf("%s-%s SNR/Loss", topoName, a))
		}
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	// The same grid runs in-process or on a phonocmap-serve instance;
	// the two return identical tables (the client's differential suite
	// pins that equivalence).
	var rn runner.Runner = runner.NewLocal()
	if *server != "" {
		c, err := client.New(*server)
		if err != nil {
			return err
		}
		rn = c
	}
	res, err := runGrid(rn, table2Grid(appList, algoList, *budget, *seed), *workers)
	if err != nil {
		return err
	}
	for _, row := range res.Table {
		line := fmt.Sprintf("%-15s |", row.App)
		for _, cells := range []map[string]sweep.TableCell{row.Mesh, row.Torus} {
			for _, a := range algoList {
				c := cells[a]
				line += fmt.Sprintf(" %9.2f %6.2f |", c.SNRDB, c.LossDB)
			}
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

func cmdAblation(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	app := fs.String("app", "VOPD", "application")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rn := runner.NewLocal()
	fmt.Fprintf(w, "Budget ablation (R-PBLA, SNR objective, %s):\n", *app)
	res, err := runGrid(rn, budgetAblationGrid(*app, []int{500, 2000, 8000, 20000}, *seed), 0)
	if err != nil {
		return err
	}
	for _, c := range res.Cells {
		fmt.Fprintf(w, "  %-14s snr %7.2f dB\n", fmt.Sprintf("budget=%d", c.Cell.Budget), c.Score.WorstSNRDB)
	}
	fmt.Fprintf(w, "\nRouter ablation (R-PBLA, SNR objective, %s, budget 8000):\n", *app)
	if res, err = runGrid(rn, routerAblationGrid(*app, 8000, *seed), 0); err != nil {
		return err
	}
	for _, c := range res.Cells {
		fmt.Fprintf(w, "  %-14s snr %7.2f dB\n", c.Cell.Arch.Router, c.Score.WorstSNRDB)
	}
	return nil
}
