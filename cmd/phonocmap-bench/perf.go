package main

// The perf subcommand writes the multi-core scaling snapshot: batch
// evaluation throughput at increasing worker counts (parallel_eval) and
// fleet sweep throughput at increasing node counts (fleet), the two
// numbers no other harness measures — perfbench pins one evaluation
// worker and runs no fleet, and go test -bench measures the kernels one
// core at a time. CI runs it on every push and uploads the JSON as an
// artifact.

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
	// ParallelEval is the batch-evaluation scaling curve: aggregate
	// evals/sec through Context.EvaluateBatch at increasing worker
	// counts on the 8x8-dense case. Results are bit-identical at every
	// worker count; only throughput changes with workers (and only on
	// multi-core runners — on one core the curve is flat, and its rows
	// carry overhead_only so nobody reads sub-1.0 "speedups" as
	// regressions).
	ParallelEval []parallelEvalPerf `json:"parallel_eval"`
	// Fleet is the multi-node sweep scaling curve: cells/sec through a
	// fleet coordinator over in-process phonocmap-serve instances at
	// increasing fleet sizes. Results are byte-identical at every size;
	// only throughput changes with nodes (and only on multi-core
	// runners — overhead_only marks the flat single-core rows).
	Fleet []fleetPerf `json:"fleet"`
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

func cmdPerf(args []string) error {
	fs := flag.NewFlagSet("perf", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed")
	minTime := fs.Duration("mintime", 300*time.Millisecond, "minimum measurement window per parallel-eval point")
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

	// Scaling curve on a dense random CG (56 tasks, 220 edges on an 8x8
	// mesh), at 1/2/4/NumCPU workers. On a single-core runner the
	// multi-worker rows cannot speed anything up — they get overhead_only
	// instead of a "speedup" column that would read as a regression.
	workerCounts := []int{1, 2, 4, runtime.NumCPU()}
	sort.Ints(workerCounts)
	seen := map[int]bool{}
	for _, workers := range workerCounts {
		if workers < 1 || seen[workers] {
			continue
		}
		seen[workers] = true
		r, err := measureParallelEval("8x8-dense", 8, 56, 220, *seed, workers, *minTime)
		if err != nil {
			return fmt.Errorf("parallel-eval x%d: %w", workers, err)
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
	fmt.Printf("wrote %s (%d parallel-eval points, %d fleet sizes)\n",
		path, len(rep.ParallelEval), len(rep.Fleet))
	return nil
}

// minEvalsPerPoint is the floor on measured evaluations per
// parallel-eval point (four 256-candidate batches), so a short window
// still averages several batches.
const minEvalsPerPoint = 1024

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
	// Warm up outside the window: the first batch clones the per-worker
	// problems and sizes their evaluators.
	if _, _, err := ctx.EvaluateBatch(batch); err != nil {
		return parallelEvalPerf{}, err
	}

	evals := 0
	start := time.Now()
	for evals < minEvalsPerPoint || time.Since(start) < minTime {
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
