package runner

import (
	"context"
	"time"

	"phonocmap/internal/scenario"
	"phonocmap/internal/search"
	"phonocmap/internal/sweep"
	"phonocmap/internal/topo"
)

// Local executes scenarios and sweeps in-process through the scenario
// compiler and executor — the pipeline phonocmap-serve workers run, so
// Local and the remote client return identical results for equal specs.
//
// A Local made by NewLocal keeps the networks it compiles, and their path
// tables, in one scenario.NetworkCache bounded by
// scenario.NetworkCacheBytes, across all its scenarios and sweeps, as a
// server does across its jobs: within the bound it builds each
// architecture's network and table once, beyond it the least recently
// used are evicted and built again when asked for. Sharing changes no
// result. The zero value is ready to use and builds a network per
// compile.
type Local struct {
	nets *scenario.NetworkCache
}

// NewLocal returns the in-process backend.
func NewLocal() *Local {
	return &Local{nets: scenario.NewNetworkCache(scenario.NetworkCacheBytes)}
}

var _ Runner = (*Local)(nil)

// RunScenario compiles and executes the scenario on this machine.
func (l *Local) RunScenario(ctx context.Context, spec scenario.Spec) (ScenarioResult, error) {
	comp, err := l.nets.Compile(spec)
	if err != nil {
		return ScenarioResult{}, err
	}
	out, err := comp.Execute(ctx, nil)
	if err != nil {
		return ScenarioResult{}, err
	}
	run := out.Run
	return ScenarioResult{
		Spec:        comp.Spec,
		Algorithm:   run.Algorithm,
		Objective:   run.Objective.String(),
		Mapping:     run.Mapping,
		Score:       run.Score,
		Evals:       run.Evals,
		IslandEvals: out.IslandEvals,
		Seed:        run.Seed,
		DurationMs:  float64(run.Duration) / float64(time.Millisecond),
		Cancelled:   run.Cancelled,
		Report:      out.Report,
		Trace:       out.Trace(),
	}, nil
}

// RunSweep expands the grid and executes every cell on a bounded local
// worker pool through a sweep.NewCellRunner on the runner's network
// cache, then assembles the result.
func (l *Local) RunSweep(ctx context.Context, spec sweep.Spec, opts SweepOptions) (SweepResult, error) {
	cells, err := sweep.Expand(spec)
	if err != nil {
		return SweepResult{}, err
	}
	var onCell func(sweep.Result)
	if opts.OnCellDone != nil {
		onCell = func(r sweep.Result) { opts.OnCellDone(CellResult(r)) }
	}
	results, err := sweep.Run(cells, sweep.NewCellRunner(l.nets), sweep.Options{
		Workers:    opts.Workers,
		Context:    ctx,
		OnCellDone: onCell,
	})
	if err != nil {
		return SweepResult{}, err
	}
	return AssembleSweep(results), nil
}

// AssembleSweep folds per-cell engine results (in cell-index order) into
// the interface's SweepResult: every cell converted, the aggregations
// from sweep.Aggregate (which leaves failed and cancelled cells out) —
// so Local and a fleet of servers produce byte-identical sweeps from
// equal per-cell results, and match the service's own sweep assembly.
func AssembleSweep(results []sweep.Result) SweepResult {
	out := SweepResult{Cells: make([]SweepCellResult, 0, len(results))}
	for _, r := range results {
		out.Cells = append(out.Cells, CellResult(r))
	}
	agg := sweep.Aggregate(results)
	out.Table = agg.Table
	out.BudgetCurves = agg.BudgetCurves
	out.Pareto = agg.Pareto
	out.Analysis = agg.Analysis
	return out
}

// CellResult converts an engine result into the interface shape.
func CellResult(r sweep.Result) SweepCellResult {
	cr := SweepCellResult{Index: r.Index, Cell: r.Cell}
	if r.Err != nil {
		cr.Error = r.Err.Error()
		return cr
	}
	cr.Score = r.Run.Score
	cr.Mapping = r.Run.Mapping
	cr.Evals = r.Run.Evals
	cr.Report = r.Report
	return cr
}

// Apps lists the bundled benchmark applications.
func (l *Local) Apps(context.Context) ([]scenario.AppInfo, error) { return scenario.Apps(), nil }

// Algorithms lists the available mapping-optimization algorithms.
func (l *Local) Algorithms(context.Context) ([]string, error) { return search.Names(), nil }

// Routers lists the built-in optical routers.
func (l *Local) Routers(context.Context) ([]scenario.RouterInfo, error) {
	return scenario.Routers(), nil
}

// Topologies lists the built-in topology kinds.
func (l *Local) Topologies(context.Context) ([]string, error) { return topo.Kinds(), nil }
