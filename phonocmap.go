// Package phonocmap is a Go implementation of PhoNoCMap (Fusella &
// Cilardo, DATE 2016): a design-space-exploration tool that maps
// application tasks onto the tiles of a photonic network-on-chip so that
// the worst-case insertion loss or the worst-case crosstalk
// signal-to-noise ratio is optimized.
//
// The package is a thin facade over the building blocks in internal/:
// communication graphs (internal/cg), topologies (internal/topo), routing
// (internal/route), photonic element physics (internal/photonic), optical
// router microarchitectures (internal/router), the network model
// (internal/network), worst-case physical analysis (internal/analysis),
// the mapping problem and DSE engine (internal/core) and the search
// algorithms (internal/search).
//
// Quick start:
//
//	app := phonocmap.MustApp("VOPD")
//	net, _ := phonocmap.NewMeshNetwork(4, 4)
//	prob, _ := phonocmap.NewProblem(app, net, phonocmap.MaximizeSNR)
//	res, _ := phonocmap.Optimize(prob, "rpbla", 20000, 1)
//	fmt.Printf("worst-case SNR: %.2f dB\n", res.Score.WorstSNRDB)
package phonocmap

import (
	"context"
	"fmt"
	"math/rand"

	"phonocmap/client"
	"phonocmap/internal/cg"
	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/fleet"
	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
	"phonocmap/internal/power"
	"phonocmap/internal/robust"
	"phonocmap/internal/router"
	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
	"phonocmap/internal/search"
	"phonocmap/internal/sim"
	"phonocmap/internal/store"
	"phonocmap/internal/sweep"
	"phonocmap/internal/topo"
	"phonocmap/internal/wdm"
)

// Re-exported core types. The facade aliases rather than wraps so that
// advanced users can drop to the internal packages without conversions.
type (
	// Graph is an application communication graph (Definition 1).
	Graph = cg.Graph
	// TaskID identifies a task within a Graph.
	TaskID = cg.TaskID
	// TileID identifies a tile of the topology.
	TileID = topo.TileID
	// Network is a concrete photonic NoC instance.
	Network = network.Network
	// Mapping assigns task i to tile Mapping[i] (the function Omega).
	Mapping = core.Mapping
	// Problem is one (application, network, objective) instance.
	Problem = core.Problem
	// Objective selects worst-case loss or worst-case SNR optimization.
	Objective = core.Objective
	// Score is the evaluation of one mapping.
	Score = core.Score
	// RunResult records one optimization run.
	RunResult = core.RunResult
	// Params is the photonic coefficient set of Table I.
	Params = photonic.Params
	// ArchSpec is the declarative architecture description.
	ArchSpec = config.ArchSpec
	// AppSpec is the declarative application description.
	AppSpec = config.AppSpec
	// Experiment is a declarative experiment description.
	Experiment = config.Experiment
	// SimConfig parameterizes the circuit-switched traffic simulator.
	SimConfig = sim.Config
	// SimStats summarizes one simulation run.
	SimStats = sim.Stats
	// PowerBudget holds the laser/detector technology constants of the
	// optical power feasibility analysis.
	PowerBudget = power.Budget
	// PowerReport is the feasibility assessment of one design point.
	PowerReport = power.Report
	// WDMAssignment is a wavelength-channel allocation for a mapped
	// application.
	WDMAssignment = wdm.Assignment
	// ParetoPoint is one non-dominated (loss, SNR) mapping.
	ParetoPoint = core.ParetoPoint
	// VariationResult summarizes mapping robustness to photonic
	// parameter variation.
	VariationResult = robust.VariationResult
	// FailureResult records a mapping's metrics under one link failure.
	FailureResult = robust.FailureResult
	// SwapSession is the incremental evaluation engine for swap-move
	// search: scores tile swaps by re-evaluating only the communications
	// they change, bit-for-bit identical to Evaluate.
	SwapSession = core.SwapSession
	// SweepSpec is a declarative design-space grid: apps × architectures
	// × objectives × algorithms × budgets × seeds.
	SweepSpec = sweep.Spec
	// SweepCell is one point of an expanded grid — exactly one job spec.
	SweepCell = sweep.Cell
	// SweepCellResult is the outcome of one executed sweep cell.
	SweepCellResult = sweep.Result
	// SweepTableRow is one application row of a Table II-style
	// algorithm-comparison aggregation.
	SweepTableRow = sweep.TableRow
	// SweepBudgetPoint is one point of a budget-ablation curve.
	SweepBudgetPoint = sweep.BudgetPoint
	// SweepAnalysisRow is one application's analysis-derived sweep
	// columns (power-feasible fraction, worst SNR under variation,
	// simulated saturation point, peak WDM channel demand).
	SweepAnalysisRow = sweep.AnalysisRow
	// SweepParetoEntry is one annotated Pareto point: the non-dominated
	// mapping plus the producing cell and its analysis report.
	SweepParetoEntry = sweep.ParetoEntry
	// Scenario is a fully declarative scenario: app, architecture
	// (optionally degraded via failed_links), objective, algorithm,
	// budget, seeding, and an optional post-optimization analyses block.
	// It is the exact shape the optimization service accepts.
	Scenario = scenario.Spec
	// CompiledScenario is a runnable scenario: the normalized spec plus
	// the runtime objects (graph, network, problem) it compiles to.
	CompiledScenario = scenario.Compiled
	// AnalysesSpec selects and configures the post-optimization analyses.
	AnalysesSpec = scenario.AnalysesSpec
	// WDMSpec, PowerSpec, RobustnessSpec, LinkFailuresSpec and SimSpec
	// configure the individual analyses of an AnalysesSpec.
	WDMSpec          = scenario.WDMSpec
	PowerSpec        = scenario.PowerSpec
	RobustnessSpec   = scenario.RobustnessSpec
	LinkFailuresSpec = scenario.LinkFailuresSpec
	SimSpec          = scenario.SimSpec
	// Report is the typed outcome of the analysis pipeline.
	Report = scenario.Report
	// ScenarioResult is one executed scenario: the optimization run, its
	// analysis report (nil for a cancelled run), and the run's
	// improvement events and per-island evaluation counts.
	ScenarioResult = scenario.Outcome
	// Runner is the unified execution interface over PhoNoCMap's
	// backends: run a scenario, run a design-space sweep, discover what
	// the backend offers. NewLocalRunner executes in-process; NewClient
	// executes against a phonocmap-serve instance — contractually
	// equivalent for equal specs (identical mappings, scores, evaluation
	// counts and analysis reports), so front ends pick the backend with a
	// flag.
	Runner = runner.Runner
	// RunnerScenarioResult is one scenario executed through a Runner —
	// identical across backends up to wall-clock duration.
	RunnerScenarioResult = runner.ScenarioResult
	// RunnerSweepResult is one sweep executed through a Runner: per-cell
	// outcomes plus the standard aggregations.
	RunnerSweepResult = runner.SweepResult
	// RunnerSweepCellResult is the outcome of one sweep cell executed
	// through a Runner.
	RunnerSweepCellResult = runner.SweepCellResult
	// SweepRunOptions tunes a Runner sweep execution (workers, caching,
	// progress callback).
	SweepRunOptions = runner.SweepOptions
	// AppInfo and RouterInfo are the discovery shapes shared by every
	// backend.
	AppInfo    = scenario.AppInfo
	RouterInfo = scenario.RouterInfo
	// Client is the typed phonocmap-serve SDK (package client); it
	// implements Runner and adds server-specific calls (Health,
	// CancelJob, CancelSweep).
	Client = client.Client
	// FleetRunner is the multi-node execution backend: a coordinator
	// sharding sweep cells across several phonocmap-serve instances with
	// health probing, least-loaded dispatch, retry with node exclusion
	// and content-addressed dedup — while producing results
	// byte-identical to NewLocalRunner at any fleet size.
	FleetRunner = fleet.Runner
	// FleetConfig configures a FleetRunner (node list, probe cadence,
	// retry bounds, per-node client options, metrics registry).
	FleetConfig = fleet.Config
	// Store is the persistent result-store interface: a versioned,
	// content-addressed archive of completed runs that phonocmap-serve
	// layers under its in-memory LRU (read-through on miss, write-behind
	// on completion, warmed at boot).
	Store = store.Store
	// StoreEntry is the full cached payload one Store key maps to:
	// result, convergence trace, per-island breakdown, analysis report.
	StoreEntry = store.Entry
	// FileStore is the stdlib-only file-backed Store: one fsynced file
	// per entry in a sharded content-addressed layout, atomic writes,
	// quarantine for damaged entries, optional size-cap eviction.
	FileStore = store.File
	// FileStoreOptions tunes a FileStore (disk size cap).
	FileStoreOptions = store.FileOptions
	// NullStore is the no-op Store (nothing persists).
	NullStore = store.Null
)

// Objective values.
const (
	MinimizeLoss = core.MinimizeLoss
	MaximizeSNR  = core.MaximizeSNR
	// MinimizeWeightedLoss optimizes bandwidth-weighted mean loss.
	MinimizeWeightedLoss = core.MinimizeWeightedLoss
)

// Apps returns the names of the eight bundled benchmark applications.
func Apps() []string { return cg.AppNames() }

// App returns a bundled benchmark application by name.
func App(name string) (*Graph, error) { return cg.App(name) }

// MustApp is App that panics on unknown names.
func MustApp(name string) *Graph { return cg.MustApp(name) }

// Algorithms returns the names of the available mapping optimization
// algorithms, the paper's three first.
func Algorithms() []string { return search.Names() }

// DefaultParams returns the Table I photonic coefficients.
func DefaultParams() Params { return photonic.DefaultParams() }

// NewMeshNetwork returns a w x h mesh of Crux routers with XY
// dimension-order routing and Table I parameters — the paper's reference
// architecture.
func NewMeshNetwork(w, h int) (*Network, error) {
	return config.DefaultArch(w, h).Build()
}

// NewTorusNetwork is NewMeshNetwork on a folded torus.
func NewTorusNetwork(w, h int) (*Network, error) {
	spec := config.DefaultArch(w, h)
	spec.Topology = "torus"
	return spec.Build()
}

// NewNetwork builds a network from a declarative architecture spec,
// giving access to every built-in topology, router and routing algorithm.
func NewNetwork(spec ArchSpec) (*Network, error) { return spec.Build() }

// NewProblem binds an application to a network under an objective,
// validating Eq. 2 (the application must fit).
func NewProblem(app *Graph, nw *Network, obj Objective) (*Problem, error) {
	return core.NewProblem(app, nw, obj)
}

// SquareForTasks returns the side of the smallest square mesh that fits
// n tasks: PIP (8 tasks) -> 3, VOPD (16) -> 4, DVOPD (32) -> 6.
func SquareForTasks(n int) int { return config.SquareForTasks(n) }

// Optimize runs the named algorithm on the problem with the given
// evaluation budget and seed, returning the best mapping found. All
// algorithms are budget-fair: equal budgets reproduce the paper's
// equal-running-time comparisons.
func Optimize(prob *Problem, algorithm string, budget int, seed int64) (RunResult, error) {
	return OptimizeContext(context.Background(), prob, algorithm, budget, seed)
}

// OptimizeContext is Optimize with cancellation: once ctx is done the
// search spends no further evaluations and returns the best mapping
// reached so far with RunResult.Cancelled set (or ctx's error when
// cancellation struck before anything was evaluated). With the same seed
// an uncancelled OptimizeContext reproduces Optimize bit-for-bit.
func OptimizeContext(ctx context.Context, prob *Problem, algorithm string, budget int, seed int64) (RunResult, error) {
	s, err := search.New(algorithm)
	if err != nil {
		return RunResult{}, err
	}
	ex, err := core.NewExploration(prob, core.Options{Budget: budget, Seed: seed, Context: ctx})
	if err != nil {
		return RunResult{}, err
	}
	return ex.Run(s)
}

// OptimizeParallel runs one independent seeded search per entry of seeds
// concurrently ("islands" mode) and returns the best result. Each island
// gets the full budget, a cloned problem and its own searcher instance,
// and reproduces the sequential Optimize run with the same seed
// bit-for-bit, so the returned score is always at least as good as the
// best of the corresponding sequential runs. workers bounds concurrency
// (<= 0 means GOMAXPROCS); ctx cancels all islands.
func OptimizeParallel(ctx context.Context, prob *Problem, algorithm string, budget int, seeds []int64, workers int) (RunResult, error) {
	factory := func() (core.Searcher, error) { return search.New(algorithm) }
	best, _, err := core.RunParallel(prob, factory, core.ParallelOptions{
		Budget:  budget,
		Seeds:   seeds,
		Workers: workers,
		Context: ctx,
	})
	return best, err
}

// Seeds derives n distinct seeds from a base seed (base, base+1, ...) for
// OptimizeParallel; n <= 0 gives none.
func Seeds(base int64, n int) []int64 { return core.SeedSequence(base, n) }

// Compare runs several algorithms under identical budgets (the Table II
// protocol) and returns the results in algorithm order.
func Compare(prob *Problem, algorithms []string, budget int, seed int64) ([]RunResult, error) {
	ex, err := core.NewExploration(prob, core.Options{Budget: budget, Seed: seed})
	if err != nil {
		return nil, err
	}
	var searchers []core.Searcher
	for _, name := range algorithms {
		s, err := search.New(name)
		if err != nil {
			return nil, err
		}
		searchers = append(searchers, s)
	}
	return ex.RunAll(searchers)
}

// RandomMapping draws a uniform valid mapping for the problem, as used by
// the Figure 3 distribution experiment.
func RandomMapping(prob *Problem, rng *rand.Rand) (Mapping, error) {
	return core.RandomMapping(rng, prob.NumTasks(), prob.NumTiles())
}

// Evaluate scores an arbitrary valid mapping against the problem's
// objective and physical models.
func Evaluate(prob *Problem, m Mapping) (Score, error) { return prob.Evaluate(m) }

// NewSwapSession opens an incremental evaluation session seated on m: a
// full evaluation up front, then EvaluateSwap/Commit/Revert score tile
// swaps at O(changed communications) cost with scores bit-for-bit
// identical to Evaluate. This is the engine behind the swap-neighborhood
// searchers (SA, tabu, R-PBLA).
func NewSwapSession(prob *Problem, m Mapping) (*SwapSession, error) {
	return prob.NewSwapSession(m)
}

// SetEvalWorkers sets the process-wide default batch-evaluation worker
// count used by the population-based searchers (GA, memetic). Worker
// count never changes results — sequential and parallel runs are
// bit-identical — it only tunes throughput. Values below 1 reset to 1
// (sequential), and values above math.MaxInt32 are held there.
func SetEvalWorkers(n int) { core.SetDefaultEvalWorkers(n) }

// EvalWorkers returns the process-wide default batch-evaluation worker
// count.
func EvalWorkers() int { return core.DefaultEvalWorkers() }

// RandomApp generates a weakly connected random application CG with the
// given task and directed-edge counts and uniform random bandwidths —
// useful for stressing large meshes beyond the eight bundled benchmarks.
func RandomApp(rng *rand.Rand, tasks, edges int) (*Graph, error) {
	return cg.RandomConnected(rng, tasks, edges)
}

// ExpandSweep expands a design-space grid into its cells in
// deterministic order (apps outermost, seeds innermost), validating
// every dimension.
func ExpandSweep(spec SweepSpec) ([]SweepCell, error) { return sweep.Expand(spec) }

// RunSweep expands and executes a design-space grid on a bounded local
// worker pool (workers <= 0 means GOMAXPROCS), returning one result per
// cell in grid order. Cells are independent seeded runs, so the results
// are identical at any worker count; ctx cancels the whole sweep. Cells
// on equal architectures share one network, and its path table, through
// a network cache of the call's own (bounded as a local runner's is).
// Individual cell failures are recorded in their result, not returned.
// A cell whose run ctx cancelled keeps its best-so-far point with
// Run.Cancelled set and no report, and the Sweep* aggregators leave it
// out. Aggregate the results with SweepTable, SweepBudgetCurves or
// SweepParetoFronts — or submit the same grid to a phonocmap-serve
// instance via POST /v1/sweeps, which executes identical cells remotely.
func RunSweep(ctx context.Context, spec SweepSpec, workers int) ([]SweepCellResult, error) {
	cells, err := sweep.Expand(spec)
	if err != nil {
		return nil, err
	}
	nets := scenario.NewNetworkCache(scenario.NetworkCacheBytes)
	return sweep.Run(cells, sweep.NewCellRunner(nets), sweep.Options{Workers: workers, Context: ctx})
}

// SweepTable folds sweep results into Table II-style comparison rows:
// per app and topology, each algorithm's best SNR (from "snr"-objective
// cells) and best loss (from "loss"-objective cells).
func SweepTable(results []SweepCellResult) []SweepTableRow { return sweep.Table(results) }

// SweepBudgetCurves folds sweep results into budget-ablation curves
// sorted by app, algorithm and ascending budget.
func SweepBudgetCurves(results []SweepCellResult) []SweepBudgetPoint {
	return sweep.BudgetCurves(results)
}

// SweepParetoFronts builds, per application, the Pareto front of
// (worst-case loss, worst-case SNR) over the best mappings of every
// successful cell.
func SweepParetoFronts(results []SweepCellResult) map[string][]ParetoPoint {
	return sweep.ParetoFronts(results)
}

// CompileScenario normalizes a declarative scenario — resolving the same
// defaults the CLI and the optimization service resolve — and builds the
// runnable problem it describes. This is the single spec-to-problem path
// every front end shares.
func CompileScenario(spec Scenario) (*CompiledScenario, error) {
	return scenario.Compile(spec)
}

// RunScenario compiles and executes a scenario end to end: optimize
// (single seed or islands when spec.Seeds > 1), then run the requested
// analyses on the winning mapping. Equal specs produce bit-identical
// results through RunScenario, the CLI 'map' command, a 1-cell sweep and
// the service's /v1/jobs endpoint. When ctx cancels the search, the
// result keeps the best-so-far mapping with Run.Cancelled set and a nil
// Report: analyses run only on complete searches.
func RunScenario(ctx context.Context, spec Scenario) (ScenarioResult, error) {
	comp, err := scenario.Compile(spec)
	if err != nil {
		return ScenarioResult{}, err
	}
	return comp.Execute(ctx, nil)
}

// NewLocalRunner returns the in-process execution backend: scenarios
// and sweeps run on this machine's worker pool through the scenario
// compiler and the sweep engine — the exact pipeline phonocmap-serve
// workers run. Like a server, the runner keeps the networks and path
// tables it compiles across its scenarios and sweeps, within a fixed
// memory bound.
func NewLocalRunner() Runner { return runner.NewLocal() }

// NewClient returns the remote execution backend: a typed client for
// the phonocmap-serve instance at serverURL (e.g.
// "http://localhost:8080"), implementing the same Runner interface as
// NewLocalRunner with identical results for equal specs. Options tune
// polling, retries, caching and the HTTP transport; use client.New
// directly for the full SDK surface (Health, CancelJob, CancelSweep).
func NewClient(serverURL string, opts ...client.Option) (Runner, error) {
	return client.New(serverURL, opts...)
}

// NewFleetRunner returns the fleet execution backend: a coordinator
// over the phonocmap-serve instances at serverURLs, implementing the
// same Runner interface with results byte-identical to NewLocalRunner
// for equal specs at any fleet size. Close it when done to stop the
// health prober.
func NewFleetRunner(cfg FleetConfig) (*FleetRunner, error) {
	return fleet.New(cfg)
}

// OpenFileStore opens (creating if needed) a persistent result store
// rooted at dir — the store phonocmap-serve mounts with -cache-dir.
// Damaged entries found at open are quarantined, never served.
func OpenFileStore(dir string, opts FileStoreOptions) (*FileStore, error) {
	return store.OpenFile(dir, opts)
}

// RunExperiment executes a declarative experiment description end to end
// through the scenario compiler.
func RunExperiment(exp Experiment) (RunResult, error) {
	res, err := RunScenario(context.Background(), Scenario{
		App:       exp.App,
		Arch:      exp.Arch,
		Objective: exp.Objective,
		Algorithm: exp.Algorithm,
		Budget:    exp.Budget,
		Seed:      exp.Seed,
	})
	if err != nil {
		return RunResult{}, err
	}
	return res.Run, nil
}

// Routers lists the built-in optical router architectures.
func Routers() []string { return router.Names() }

// RouterSummary describes a built-in router, e.g.
// "crux: 12 rings, 4 crossings, 16 turns".
func RouterSummary(name string) (string, error) {
	a, err := router.ByName(name)
	if err != nil {
		return "", err
	}
	return a.Summary(), nil
}

// Topologies lists the built-in topology kinds.
func Topologies() []string { return topo.Kinds() }

// NewCustomMesh builds a mesh with explicit die size, router and routing
// choices — a convenience wrapper over ArchSpec for the common case.
func NewCustomMesh(w, h int, dieCm float64, routerName, routingName string) (*Network, error) {
	spec := ArchSpec{
		Topology: "mesh", Width: w, Height: h,
		DieCm: dieCm, Router: routerName, Routing: routingName,
	}
	return spec.Build()
}

// Simulate plays the mapped application's traffic over the network with
// the circuit-switched discrete-event simulator (an extension beyond the
// paper's static analysis) and returns latency/throughput statistics.
func Simulate(nw *Network, app *Graph, m Mapping, cfg SimConfig) (SimStats, error) {
	return sim.Run(nw, app, m, cfg)
}

// DefaultPowerBudget returns a representative chip-scale laser/detector
// technology point for feasibility analysis.
func DefaultPowerBudget() PowerBudget { return power.DefaultBudget() }

// AssessPower evaluates the optical power feasibility of a scored
// mapping: required laser power, nonlinearity headroom, estimated BER.
func AssessPower(b PowerBudget, s Score) (PowerReport, error) {
	return b.Assess(s.WorstLossDB, s.WorstSNRDB)
}

// ParetoExplore runs the named algorithm against the given objective
// while archiving every non-dominated (worst-loss, worst-SNR) mapping it
// evaluates, returning the final Pareto front sorted least-lossy-first.
// Multi-objective exploration beyond the paper's single-objective runs.
func ParetoExplore(prob *Problem, algorithm string, budget int, seed int64) ([]ParetoPoint, error) {
	s, err := search.New(algorithm)
	if err != nil {
		return nil, err
	}
	ctx, err := core.NewContext(prob, rand.New(rand.NewSource(seed)), budget)
	if err != nil {
		return nil, err
	}
	var front core.ParetoFront
	front.Attach(ctx)
	if err := s.Search(ctx); err != nil {
		return nil, err
	}
	return front.Points(), nil
}

// AssessVariation runs a Monte Carlo robustness study of a mapping under
// relative photonic-coefficient variation (process/thermal tolerance),
// rebuilding the network per sample.
func AssessVariation(nw *Network, app *Graph, m Mapping, samples int, tolerance float64, seed int64) (VariationResult, error) {
	return robust.Variation(nw.Topology(), nw.Router(), nw.Routing(), nw.Params(), app, m, samples, tolerance, seed)
}

// AssessLinkFailures evaluates a mapping under every single-link cut with
// BFS rerouting. Requires an all-turn router (cygnus or crossbar).
func AssessLinkFailures(nw *Network, app *Graph, m Mapping) ([]FailureResult, error) {
	return robust.LinkFailures(nw.Topology(), nw.Router(), nw.Params(), app, m)
}

// AllocateWavelengths colors the contention graph of a mapped
// application, assigning each communication a WDM channel so that no two
// conflicting communications share a wavelength (extension beyond the
// paper's single-wavelength analysis). The channel count is a
// mapping-dependent cost metric.
func AllocateWavelengths(nw *Network, app *Graph, m Mapping) (WDMAssignment, error) {
	return wdm.Allocate(nw, app, m)
}

// EvaluateWDM computes worst-case loss and SNR under a wavelength
// assignment: only same-channel communications exchange crosstalk.
func EvaluateWDM(nw *Network, app *Graph, m Mapping, a WDMAssignment) (WorstLossDB, WorstSNRDB float64, err error) {
	res, err := wdm.Evaluate(nw, app, m, a)
	if err != nil {
		return 0, 0, err
	}
	return res.WorstLossDB, res.WorstSNRDB, nil
}

// Verify re-checks a run result against a fresh problem instance —
// a guard for downstream pipelines that persist mappings. It re-scores
// the mapping with the pair kernel (Problem.Rescore), so a score found
// through a network's path table is checked by the other engine.
func Verify(prob *Problem, res RunResult) error {
	s, err := prob.Rescore(res.Mapping)
	if err != nil {
		return err
	}
	if s != res.Score {
		return fmt.Errorf("phonocmap: stored score %+v does not reproduce (got %+v)", res.Score, s)
	}
	return nil
}
