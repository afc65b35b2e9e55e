package main

// The perf subcommand is the tracked performance trajectory: a
// machine-readable snapshot of the numbers the project optimizes for —
// the cost of a network build, raw evaluation speed (full re-evaluation
// vs the incremental delta engine on the swap hot path) and end-to-end
// optimizer throughput per algorithm. CI runs it on every push and
// uploads the JSON as an artifact; committed BENCH_<date>.json files
// pin the trajectory across PRs.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"phonocmap"
	"phonocmap/client"
	"phonocmap/internal/core"
	"phonocmap/internal/fleet"
	"phonocmap/internal/runner"
	"phonocmap/internal/service"
	"phonocmap/internal/version"
)

// perfReport is the BENCH_<date>.json schema.
type perfReport struct {
	// Date is the snapshot day (YYYY-MM-DD); Version the build version.
	Date      string `json:"date"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// NetworkBuild is the cost of one network build on Crux/XY meshes:
	// every ordered tile pair expanded into its element-level path.
	NetworkBuild []networkBuildPerf `json:"network_build"`
	// SwapEval compares full re-evaluation against the incremental
	// delta engine on the swap-and-score hot path.
	SwapEval []swapEvalPerf `json:"swap_eval"`
	// ParallelEval is the batch-evaluation scaling curve: aggregate
	// evals/sec through Context.EvaluateBatch at increasing worker
	// counts on the densest swap-eval case. Results are bit-identical
	// at every worker count; only throughput changes with workers (and
	// only on multi-core runners — on one core the curve is flat, and
	// its rows carry overhead_only so nobody reads sub-1.0 "speedups"
	// as regressions).
	ParallelEval []parallelEvalPerf `json:"parallel_eval"`
	// Fleet is the multi-node sweep scaling curve: cells/sec through a
	// fleet coordinator over in-process phonocmap-serve instances at
	// increasing fleet sizes. Results are byte-identical at every size;
	// only throughput changes with nodes (and only on multi-core
	// runners — overhead_only marks the flat single-core rows).
	Fleet []fleetPerf `json:"fleet"`
	// Algorithms is end-to-end optimizer throughput, one full run per
	// algorithm at the same budget and seed.
	Algorithms []algoPerf `json:"algorithms"`
}

// networkBuildPerf is one network-build case: wall time, heap
// allocations and heap bytes per build, averaged over BuildsMeasured
// builds after one warm-up build.
type networkBuildPerf struct {
	Case           string  `json:"case"`
	Method         string  `json:"method"`
	Tiles          int     `json:"tiles"`
	BuildsMeasured int     `json:"builds_measured"`
	MsPerOp        float64 `json:"ms_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
}

// swapEvalPerf is one full-vs-incremental case on a dense random CG
// (the incremental engine's worst case: many communications per task).
type swapEvalPerf struct {
	Case              string  `json:"case"`
	Tasks             int     `json:"tasks"`
	Edges             int     `json:"edges"`
	FullEvalsPerSec   float64 `json:"full_evals_per_sec"`
	IncrEvalsPerSec   float64 `json:"incremental_evals_per_sec"`
	Speedup           float64 `json:"speedup"`
	SwapsMeasuredFull int     `json:"swaps_measured_full"`
	SwapsMeasuredIncr int     `json:"swaps_measured_incremental"`
}

// parallelEvalPerf is one point of the batch-evaluation scaling curve.
// Workers is the flag-requested count; EvalWorkers what the run
// actually used (the context clamps to the batch size). OverheadOnly
// marks rows measured on a single-core runner, where extra workers can
// only add coordination overhead — their speedup column reports the
// cost of the machinery, not parallel scaling.
type parallelEvalPerf struct {
	Case          string  `json:"case"`
	Workers       int     `json:"workers"`
	EvalWorkers   int     `json:"eval_workers"`
	EvalsMeasured int     `json:"evals_measured"`
	EvalsPerSec   float64 `json:"evals_per_sec"`
	SpeedupVsOne  float64 `json:"speedup_vs_1_worker"`
	OverheadOnly  bool    `json:"overhead_only,omitempty"`
}

// fleetPerf is one point of the fleet sweep scaling curve: a fixed
// distinct-seed grid swept through a coordinator over Nodes in-process
// phonocmap-serve instances (one sweep worker each). OverheadOnly has
// the same meaning as in parallelEvalPerf: on one core more nodes
// cannot run cells concurrently, so the row measures dispatch overhead.
type fleetPerf struct {
	Nodes          int     `json:"nodes"`
	WorkersPerNode int     `json:"workers_per_node"`
	Cells          int     `json:"cells"`
	DurationMs     float64 `json:"duration_ms"`
	CellsPerSec    float64 `json:"cells_per_sec"`
	SpeedupVsOne   float64 `json:"speedup_vs_1_node"`
	OverheadOnly   bool    `json:"overhead_only,omitempty"`
}

// algoPerf is one optimizer run: evaluations per second through the
// full algorithm loop (bookkeeping included), plus the score it
// reached so quality regressions show up next to throughput ones.
type algoPerf struct {
	Algorithm   string  `json:"algorithm"`
	App         string  `json:"app"`
	Budget      int     `json:"budget"`
	Evals       int     `json:"evals"`
	DurationMs  float64 `json:"duration_ms"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	SNRDB       float64 `json:"snr_db"`
}

func cmdPerf(args []string) error {
	fs := flag.NewFlagSet("perf", flag.ExitOnError)
	app := fs.String("app", "VOPD", "application for the per-algorithm runs")
	budget := fs.Int("budget", 5000, "evaluation budget per algorithm run")
	seed := fs.Int64("seed", 1, "random seed")
	algos := fs.String("algos", "rs,ga,rpbla,sa,tabu,memetic", "comma-separated algorithms")
	minTime := fs.Duration("mintime", 300*time.Millisecond, "minimum measurement window per swap-eval case")
	fleetCells := fs.Int("fleet-cells", 12, "distinct-seed cells in the fleet scaling sweep")
	fleetBudget := fs.Int("fleet-budget", 400, "evaluation budget per fleet sweep cell")
	out := fs.String("out", "", "write the snapshot to this path (default BENCH_<date>.json)")
	toStdout := fs.Bool("json", false, "write the snapshot JSON to stdout instead of a file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep := perfReport{
		Date:      time.Now().UTC().Format("2006-01-02"),
		Version:   version.String(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}

	for _, side := range []int{3, 4, 6, 8} {
		r, err := measureNetworkBuild(side, *minTime)
		if err != nil {
			return fmt.Errorf("network build %dx%d: %w", side, side, err)
		}
		rep.NetworkBuild = append(rep.NetworkBuild, r)
	}

	swapCases := []struct {
		name         string
		side         int
		tasks, edges int
	}{
		{"4x4-dense", 4, 14, 48},
		{"8x8-dense", 8, 56, 220},
	}
	for _, tc := range swapCases {
		r, err := measureSwapEval(tc.name, tc.side, tc.tasks, tc.edges, *seed, *minTime)
		if err != nil {
			return fmt.Errorf("swap-eval %s: %w", tc.name, err)
		}
		rep.SwapEval = append(rep.SwapEval, r)
	}

	// Scaling curve on the densest case, at 1/2/4/NumCPU workers. On a
	// single-core runner the multi-worker rows cannot speed anything up —
	// they get overhead_only instead of a "speedup" column that would
	// read as a regression.
	workerCounts := []int{1, 2, 4, runtime.NumCPU()}
	sort.Ints(workerCounts)
	last := swapCases[len(swapCases)-1]
	seen := map[int]bool{}
	for _, workers := range workerCounts {
		if workers < 1 || seen[workers] {
			continue
		}
		seen[workers] = true
		r, err := measureParallelEval(last.name, last.side, last.tasks, last.edges, *seed, workers, *minTime)
		if err != nil {
			return fmt.Errorf("parallel-eval %s x%d: %w", last.name, workers, err)
		}
		r.OverheadOnly = workers > 1 && runtime.NumCPU() == 1
		rep.ParallelEval = append(rep.ParallelEval, r)
	}
	for i := range rep.ParallelEval {
		if base := rep.ParallelEval[0].EvalsPerSec; base > 0 {
			rep.ParallelEval[i].SpeedupVsOne = rep.ParallelEval[i].EvalsPerSec / base
		}
	}

	// Fleet scaling: the same distinct-seed grid swept through 1, 2 and
	// 4 in-process phonocmap-serve nodes. Sizes beyond 1 are marked
	// overhead_only on single-core runners, same as parallel_eval.
	for _, nodes := range []int{1, 2, 4} {
		r, err := measureFleet(nodes, *fleetCells, *fleetBudget, *seed)
		if err != nil {
			return fmt.Errorf("fleet x%d: %w", nodes, err)
		}
		r.OverheadOnly = nodes > 1 && runtime.NumCPU() == 1
		rep.Fleet = append(rep.Fleet, r)
	}
	for i := range rep.Fleet {
		if base := rep.Fleet[0].CellsPerSec; base > 0 {
			rep.Fleet[i].SpeedupVsOne = rep.Fleet[i].CellsPerSec / base
		}
	}

	for _, algo := range splitList(*algos) {
		r, err := measureAlgo(*app, algo, *budget, *seed)
		if err != nil {
			return fmt.Errorf("algorithm %s: %w", algo, err)
		}
		rep.Algorithms = append(rep.Algorithms, r)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *toStdout {
		_, err := os.Stdout.Write(enc)
		return err
	}
	path := *out
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d network-build cases, %d swap-eval cases, %d algorithms)\n",
		path, len(rep.NetworkBuild), len(rep.SwapEval), len(rep.Algorithms))
	return nil
}

// minBuildsPerCase is the floor on measured builds per network-build
// case, so a window that one 8x8 build nearly fills still averages
// several.
const minBuildsPerCase = 8

// measureNetworkBuild times phonocmap.NewMeshNetwork(side, side) — the
// topology, then network.New with the Crux router, XY routing and Table I
// parameters — until the measurement window fills and at least
// minBuildsPerCase builds ran. Allocations and bytes come from the
// runtime's cumulative heap counters read around the window.
func measureNetworkBuild(side int, minTime time.Duration) (networkBuildPerf, error) {
	nw, err := phonocmap.NewMeshNetwork(side, side)
	if err != nil {
		return networkBuildPerf{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	builds := 0
	start := time.Now()
	for builds < minBuildsPerCase || time.Since(start) < minTime {
		if _, err := phonocmap.NewMeshNetwork(side, side); err != nil {
			return networkBuildPerf{}, err
		}
		builds++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(builds)
	return networkBuildPerf{
		Case:           fmt.Sprintf("mesh-%dx%d", side, side),
		Method:         "phonocmap.NewMeshNetwork (crux, xy, Table I) in a loop; runtime.MemStats Mallocs and TotalAlloc deltas",
		Tiles:          nw.NumTiles(),
		BuildsMeasured: builds,
		MsPerOp:        float64(elapsed) / float64(time.Millisecond) / n,
		AllocsPerOp:    float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

// minSwapsPerCase is the floor on measured swaps per case and path.
// Time-window-only measurement undersampled expensive cases — the 8x8
// full-eval figure was once derived from just 128 swaps, mostly warm-up
// — so the loops now run until BOTH the window and this count are
// satisfied.
const minSwapsPerCase = 1024

// measureSwapEval times the swap-and-score hot path both ways on one
// dense random CG, repeating a fixed 4096-swap sequence until the
// measurement window fills and at least minSwapsPerCase swaps ran.
func measureSwapEval(name string, side, tasks, edges int, seed int64, minTime time.Duration) (swapEvalPerf, error) {
	rng := rand.New(rand.NewSource(seed))
	app, err := phonocmap.RandomApp(rng, tasks, edges)
	if err != nil {
		return swapEvalPerf{}, err
	}
	net, err := phonocmap.NewMeshNetwork(side, side)
	if err != nil {
		return swapEvalPerf{}, err
	}
	prob, err := phonocmap.NewProblem(app, net, phonocmap.MaximizeSNR)
	if err != nil {
		return swapEvalPerf{}, err
	}
	m0, err := phonocmap.RandomMapping(prob, rng)
	if err != nil {
		return swapEvalPerf{}, err
	}

	// One fixed random swap sequence, shared by both paths.
	numTiles := net.NumTiles()
	type swap struct{ a, b phonocmap.TileID }
	seq := make([]swap, 4096)
	for i := range seq {
		a := rng.Intn(numTiles)
		c := rng.Intn(numTiles - 1)
		if c >= a {
			c++
		}
		seq[i] = swap{a: phonocmap.TileID(a), b: phonocmap.TileID(c)}
	}

	// Full re-evaluation path: apply the swap to the mapping, score it
	// from scratch.
	taskOf := make([]int, numTiles)
	for t := range taskOf {
		taskOf[t] = -1
	}
	m := m0.Clone()
	for task, tile := range m {
		taskOf[tile] = task
	}
	// Both loops cycle the fixed sequence, checking the window every
	// checkEvery swaps so one pass of an expensive case cannot overshoot
	// the measurement budget by orders of magnitude.
	const checkEvery = 64
	fullOps := 0
	start := time.Now()
	for fullOps < minSwapsPerCase || time.Since(start) < minTime {
		for k := 0; k < checkEvery; k++ {
			s := seq[fullOps%len(seq)]
			ta, tb := taskOf[s.a], taskOf[s.b]
			taskOf[s.a], taskOf[s.b] = tb, ta
			if ta >= 0 {
				m[ta] = s.b
			}
			if tb >= 0 {
				m[tb] = s.a
			}
			if _, err := phonocmap.Evaluate(prob, m); err != nil {
				return swapEvalPerf{}, err
			}
			fullOps++
		}
	}
	fullRate := float64(fullOps) / time.Since(start).Seconds()

	// Incremental path: the delta engine evaluates only what the swap
	// touched.
	sess, err := phonocmap.NewSwapSession(prob, m0)
	if err != nil {
		return swapEvalPerf{}, err
	}
	incrOps := 0
	start = time.Now()
	for incrOps < minSwapsPerCase || time.Since(start) < minTime {
		for k := 0; k < checkEvery; k++ {
			s := seq[incrOps%len(seq)]
			if _, err := sess.EvaluateSwap(s.a, s.b); err != nil {
				return swapEvalPerf{}, err
			}
			sess.Commit()
			incrOps++
		}
	}
	incrRate := float64(incrOps) / time.Since(start).Seconds()

	out := swapEvalPerf{
		Case: name, Tasks: tasks, Edges: edges,
		FullEvalsPerSec:   fullRate,
		IncrEvalsPerSec:   incrRate,
		SwapsMeasuredFull: fullOps, SwapsMeasuredIncr: incrOps,
	}
	if fullRate > 0 {
		out.Speedup = incrRate / fullRate
	}
	return out, nil
}

// measureParallelEval times Context.EvaluateBatch — the production
// population-evaluation path, deterministic reduction included — on
// batches of GA-offspring-like candidates at a fixed worker count.
func measureParallelEval(name string, side, tasks, edges int, seed int64, workers int, minTime time.Duration) (parallelEvalPerf, error) {
	rng := rand.New(rand.NewSource(seed))
	app, err := phonocmap.RandomApp(rng, tasks, edges)
	if err != nil {
		return parallelEvalPerf{}, err
	}
	net, err := phonocmap.NewMeshNetwork(side, side)
	if err != nil {
		return parallelEvalPerf{}, err
	}
	prob, err := phonocmap.NewProblem(app, net, phonocmap.MaximizeSNR)
	if err != nil {
		return parallelEvalPerf{}, err
	}
	// Candidate batch: 256 single-swap neighbors of a base mapping —
	// the shape EvaluateBatch sees from the batched searchers.
	base, err := phonocmap.RandomMapping(prob, rng)
	if err != nil {
		return parallelEvalPerf{}, err
	}
	numTiles := net.NumTiles()
	taskOf := make([]int, numTiles)
	for t := range taskOf {
		taskOf[t] = -1
	}
	for task, tile := range base {
		taskOf[tile] = task
	}
	batch := make([]core.Mapping, 0, 256)
	for len(batch) < cap(batch) {
		a := rng.Intn(numTiles)
		b := rng.Intn(numTiles)
		if a == b || (taskOf[a] < 0 && taskOf[b] < 0) {
			continue
		}
		cand := base.Clone()
		if ta := taskOf[a]; ta >= 0 {
			cand[ta] = phonocmap.TileID(b)
		}
		if tb := taskOf[b]; tb >= 0 {
			cand[tb] = phonocmap.TileID(a)
		}
		batch = append(batch, cand)
	}

	ctx, err := core.NewContext(prob, rng, math.MaxInt/2)
	if err != nil {
		return parallelEvalPerf{}, err
	}
	defer ctx.Close()
	ctx.SetEvalWorkers(workers)
	// Warm the pool (seats the per-worker sessions) outside the window.
	if _, _, err := ctx.EvaluateBatch(batch); err != nil {
		return parallelEvalPerf{}, err
	}

	evals := 0
	start := time.Now()
	for evals < minSwapsPerCase || time.Since(start) < minTime {
		_, n, err := ctx.EvaluateBatch(batch)
		if err != nil {
			return parallelEvalPerf{}, err
		}
		evals += n
	}
	// The context clamps workers to the batch size — report what actually
	// ran, not just what the flag asked for.
	used := ctx.EvalWorkers()
	if used > len(batch) {
		used = len(batch)
	}
	out := parallelEvalPerf{
		Case: name, Workers: workers, EvalWorkers: used, EvalsMeasured: evals,
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		out.EvalsPerSec = float64(evals) / secs
	}
	return out, nil
}

// measureFleet boots nodes single-worker phonocmap-serve instances
// in-process, shards a distinct-seed sweep across them through the
// fleet coordinator, and reports end-to-end cells/sec. Every cell is a
// unique computation (distinct seeds defeat both dedup and the result
// cache), so the number is honest dispatch-plus-execution throughput.
func measureFleet(nodes, cells, budget int, seed int64) (fleetPerf, error) {
	servers := make([]*httptest.Server, nodes)
	urls := make([]string, nodes)
	for i := range servers {
		srv := service.New(service.Config{Workers: 1})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		servers[i] = ts
		urls[i] = ts.URL
	}
	fr, err := fleet.New(fleet.Config{
		Servers:       urls,
		ProbeInterval: 10 * time.Second,
		ClientOptions: []client.Option{
			client.WithPollInterval(2 * time.Millisecond),
			client.WithoutEvents(),
		},
	})
	if err != nil {
		return fleetPerf{}, err
	}
	defer fr.Close()

	seeds := make([]int64, cells)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	spec := phonocmap.SweepSpec{
		Apps:       []phonocmap.AppSpec{{Builtin: "PIP"}},
		Archs:      []phonocmap.ArchSpec{{Topology: "mesh"}},
		Objectives: []string{"snr"},
		Algorithms: []string{"rs"},
		Budgets:    []int{budget},
		Seeds:      seeds,
	}
	start := time.Now()
	res, err := fr.RunSweep(context.Background(), spec, runner.SweepOptions{})
	if err != nil {
		return fleetPerf{}, err
	}
	dur := time.Since(start)
	for _, c := range res.Cells {
		if c.Error != "" {
			return fleetPerf{}, fmt.Errorf("cell %d failed: %s", c.Index, c.Error)
		}
	}
	out := fleetPerf{
		Nodes: nodes, WorkersPerNode: 1, Cells: len(res.Cells),
		DurationMs: float64(dur) / float64(time.Millisecond),
	}
	if secs := dur.Seconds(); secs > 0 {
		out.CellsPerSec = float64(len(res.Cells)) / secs
	}
	return out, nil
}

// measureAlgo runs one full optimization and reports its throughput
// from the optimizer's own wall clock.
func measureAlgo(app, algo string, budget int, seed int64) (algoPerf, error) {
	g := phonocmap.MustApp(app)
	side := phonocmap.SquareForTasks(g.NumTasks())
	net, err := phonocmap.NewMeshNetwork(side, side)
	if err != nil {
		return algoPerf{}, err
	}
	prob, err := phonocmap.NewProblem(g, net, phonocmap.MaximizeSNR)
	if err != nil {
		return algoPerf{}, err
	}
	res, err := phonocmap.Optimize(prob, algo, budget, seed)
	if err != nil {
		return algoPerf{}, err
	}
	secs := res.Duration.Seconds()
	out := algoPerf{
		Algorithm: algo, App: app, Budget: budget,
		Evals:      res.Evals,
		DurationMs: float64(res.Duration) / float64(time.Millisecond),
		SNRDB:      res.Score.WorstSNRDB,
	}
	if secs > 0 {
		out.EvalsPerSec = float64(res.Evals) / secs
	}
	return out, nil
}
