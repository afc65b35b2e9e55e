// Package runner defines the unified execution interface over
// PhoNoCMap's backends: one typed API — run a scenario, run a design-
// space sweep, discover what the backend offers — with interchangeable
// implementations. Local (in-process optimization on this machine's
// worker pool, through the scenario executor a service worker runs too)
// and the phonocmap-serve client SDK (package client) implement the
// same interface and are contractually equivalent: equal specs produce
// identical results, including analysis reports and per-island
// evaluation breakdowns, whichever backend executes them.
// Front ends (the CLI, the examples, library callers) program against
// Runner and pick the backend with a flag.
package runner

import (
	"context"

	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
	"phonocmap/internal/sweep"
)

// ScenarioResult is one executed scenario, shaped so that local and
// remote execution return byte-identical values for equal specs:
// everything here is either deterministic in the spec (mapping, score,
// evaluation counts, report) or explicitly execution-local and excluded
// from the equivalence contract (DurationMs).
type ScenarioResult struct {
	// Spec is the fully normalized scenario that ran — every default
	// resolved, so Spec.Key() is its content address.
	Spec scenario.Spec `json:"spec"`
	// Algorithm and Objective echo the run's resolved choices.
	Algorithm string `json:"algorithm"`
	Objective string `json:"objective"`
	// Mapping and Score are the winning design point.
	Mapping core.Mapping `json:"mapping"`
	Score   core.Score   `json:"score"`
	// Evals counts the winning run's evaluations (the best island's in
	// islands mode); IslandEvals is the per-island breakdown, one entry
	// per seed.
	Evals       int   `json:"evals"`
	IslandEvals []int `json:"island_evals,omitempty"`
	// Seed is the winning run's seed.
	Seed int64 `json:"seed"`
	// DurationMs is the winning run's wall-clock search time
	// (core.RunResult.Duration). It is the one field outside the
	// local/remote equivalence contract (and a cache replay reports the
	// original run's duration).
	DurationMs float64 `json:"duration_ms"`
	// Cancelled marks a run stopped early through its context; Mapping
	// and Score then hold the best point reached before the stop and
	// Report is nil (analyses do not run on truncated results).
	Cancelled bool `json:"cancelled,omitempty"`
	// Report is the post-optimization analysis report, present when the
	// spec requested analyses.
	Report *scenario.Report `json:"report,omitempty"`
	// Trace is the run's span record: the improvement timeline, per-island
	// spans and time-to-best. Its deterministic fields (event islands,
	// evaluation counts, scores; span evals and improvement counts) are
	// part of the equivalence contract; its wall-clock fields (AtMs,
	// TimeToBestMs, DurationMs, throughputs) are execution-local like
	// DurationMs above.
	Trace *scenario.RunTrace `json:"trace,omitempty"`
}

// SweepCellResult is the outcome of one executed sweep cell.
type SweepCellResult struct {
	// Index is the cell's position in the expanded grid.
	Index int `json:"index"`
	// Cell is the fully normalized grid cell.
	Cell sweep.Cell `json:"cell"`
	// Score, Mapping, Evals and Report describe the cell's winning run;
	// zero-valued when Error is set.
	Score   core.Score       `json:"score"`
	Mapping core.Mapping     `json:"mapping,omitempty"`
	Evals   int              `json:"evals"`
	Report  *scenario.Report `json:"report,omitempty"`
	// Error is the cell's failure (or cancellation), empty on success.
	Error string `json:"error,omitempty"`
}

// SweepResult is an executed design-space sweep: the per-cell outcomes
// in grid order plus the sweep engine's aggregations. Failed cells keep
// their slot (with Error set) and are excluded from the aggregations.
type SweepResult struct {
	Cells        []SweepCellResult              `json:"cells"`
	Table        []sweep.TableRow               `json:"table,omitempty"`
	BudgetCurves []sweep.BudgetPoint            `json:"budget_curves,omitempty"`
	Pareto       map[string][]sweep.ParetoEntry `json:"pareto,omitempty"`
	Analysis     []sweep.AnalysisRow            `json:"analysis,omitempty"`
}

// SweepOptions tunes a sweep execution. The zero value is always valid.
type SweepOptions struct {
	// Workers bounds concurrently running cells for the local backend
	// (<= 0 means GOMAXPROCS). The remote backend's concurrency is the
	// server's worker pool; Workers is ignored there.
	Workers int
	// NoCache asks the remote backend to skip its result cache for every
	// cell. The local backend has no cache; NoCache is a no-op there.
	NoCache bool
	// OnCellDone, when non-nil, is called as cells settle — live
	// progress for CLIs. Calls may arrive concurrently. The local
	// backend delivers the full cell result; the remote backend delivers
	// what its status stream carries (index, cell, score, evals, error —
	// mappings and reports arrive with the final SweepResult).
	OnCellDone func(SweepCellResult)
}

// Runner executes scenarios and sweeps against one backend. All methods
// are safe for concurrent use and honor ctx cancellation: a cancelled
// scenario returns its best-so-far result with Cancelled set when any
// evaluation happened, an error otherwise.
//
// The interface is the service-equivalence guarantee as an API: for
// equal specs, every implementation must return identical
// ScenarioResult/SweepResult values up to DurationMs. The differential
// suite in package client enforces it against a live server.
type Runner interface {
	// RunScenario compiles and executes one scenario end to end:
	// optimization (single seed or islands), then the spec's analyses on
	// the winning mapping.
	RunScenario(ctx context.Context, spec scenario.Spec) (ScenarioResult, error)
	// RunSweep expands a declarative grid and executes every cell,
	// returning per-cell outcomes and the standard aggregations.
	RunSweep(ctx context.Context, spec sweep.Spec, opts SweepOptions) (SweepResult, error)

	// Apps lists the backend's bundled benchmark applications.
	Apps(ctx context.Context) ([]scenario.AppInfo, error)
	// Algorithms lists the backend's mapping-optimization algorithms.
	Algorithms(ctx context.Context) ([]string, error)
	// Routers lists the backend's built-in optical routers.
	Routers(ctx context.Context) ([]scenario.RouterInfo, error)
	// Topologies lists the backend's built-in topology kinds.
	Topologies(ctx context.Context) ([]string, error)
}
