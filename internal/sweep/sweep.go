// Package sweep is the design-space sweep engine: it expands a declarative
// grid specification — applications × architectures × objectives ×
// algorithms × budgets × seeds — into cells, executes the cells on a
// bounded worker pool with per-cell cancellation, and aggregates the
// results into the paper's comparison shapes (Table II rows, budget
// ablation curves, Pareto fronts).
//
// Each cell is exactly one job specification as the optimization service
// understands it: the same application/architecture normalization
// (config.ArchSpec.Normalize + config.Experiment.Normalize) and the same
// scenario executor (scenario.Compiled.Execute, through RunCell or
// NewCellRunner), so a cell run locally, by phonocmap-bench, or through
// the service's /v1/sweeps endpoint produces bit-identical results and
// shares one content-addressed cache identity. The aggregators leave failed cells
// and cancelled runs out, so every backend reports a sweep the same way.
package sweep

import (
	"fmt"
	"math"

	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
	"phonocmap/internal/search"
)

// Spec is a declarative design-space grid. Every dimension is a list;
// the grid is the cross product. Empty dimensions default to the paper's
// reference choices (one auto-sized mesh, SNR objective, R-PBLA, budget
// 20000, seed 1).
type Spec struct {
	// Apps is the only required dimension.
	Apps []config.AppSpec `json:"apps"`
	// Archs lists architecture variants. Zero-valued Width/Height are
	// auto-sized per application to the smallest square that fits, so one
	// ArchSpec{Topology:"mesh"} entry covers apps of any size.
	Archs []config.ArchSpec `json:"archs,omitempty"`
	// Objectives are objective names ("snr", "loss", "wloss").
	Objectives []string `json:"objectives,omitempty"`
	// Algorithms are search algorithm names ("rs", "ga", "rpbla", ...).
	Algorithms []string `json:"algorithms,omitempty"`
	// Budgets are per-run evaluation budgets (the equal-budget protocol:
	// every algorithm compared at the same budget).
	Budgets []int `json:"budgets,omitempty"`
	// Seeds are base exploration seeds; each seed is its own grid cell.
	Seeds []int64 `json:"seeds,omitempty"`
	// Islands > 1 runs every cell in multi-seed islands mode with that
	// many concurrent seeded searches (seed, seed+1, ...).
	Islands int `json:"islands,omitempty"`
	// Analyses, when present, runs the scenario analysis pipeline (wdm,
	// power, robustness, link failures, traffic sim) on every cell's
	// winning mapping; per-cell reports feed the analysis-derived
	// aggregation columns.
	Analyses *scenario.AnalysesSpec `json:"analyses,omitempty"`
}

// normalize fills the spec's dimension defaults in place.
func (s *Spec) normalize() {
	if len(s.Archs) == 0 {
		s.Archs = []config.ArchSpec{{}} // auto-sized reference mesh
	}
	if len(s.Objectives) == 0 {
		s.Objectives = []string{"snr"}
	}
	if len(s.Algorithms) == 0 {
		s.Algorithms = []string{"rpbla"}
	}
	if len(s.Budgets) == 0 {
		s.Budgets = []int{20000}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if s.Islands == 0 {
		s.Islands = 1
	}
}

// Size returns the number of cells the spec expands to, without
// expanding it — callers can reject oversized grids cheaply. The
// product saturates at math.MaxInt instead of overflowing, so an
// adversarially huge grid (six lists of thousands of entries multiply
// past 2^63) still reads as enormous rather than wrapping to a small or
// negative number and slipping past a limit check.
func (s Spec) Size() int {
	t := s
	t.normalize()
	size := 1
	for _, n := range []int{
		len(t.Apps), len(t.Archs), len(t.Objectives),
		len(t.Algorithms), len(t.Budgets), len(t.Seeds),
	} {
		if n == 0 {
			return 0
		}
		if size > math.MaxInt/n {
			return math.MaxInt
		}
		size *= n
	}
	return size
}

// Cell is one point of the grid: a fully normalized job specification.
// Equal cells describe identical computations.
type Cell struct {
	App       config.AppSpec  `json:"app"`
	Arch      config.ArchSpec `json:"arch"`
	Objective string          `json:"objective"`
	Algorithm string          `json:"algorithm"`
	Budget    int             `json:"budget"`
	Seed      int64           `json:"seed"`
	// Islands is the multi-seed island count (1 = single run).
	Islands int `json:"islands"`
	// Analyses is the normalized post-optimization analysis block shared
	// by the whole grid (nil = none).
	Analyses *scenario.AnalysesSpec `json:"analyses,omitempty"`
}

// AppName is the cell's application label for aggregation: the builtin
// name, or the custom graph's name.
func (c Cell) AppName() string {
	if c.App.Builtin != "" {
		return c.App.Builtin
	}
	return c.App.Name
}

// Label is a compact human-readable cell identity for logs and progress
// displays.
func (c Cell) Label() string {
	return fmt.Sprintf("%s/%s %dx%d/%s/%s/b%d/s%d",
		c.AppName(), c.Arch.Topology, c.Arch.Width, c.Arch.Height,
		c.Objective, c.Algorithm, c.Budget, c.Seed)
}

// Scenario converts the cell into the equivalent scenario spec — the
// exact shape the optimization service normalizes and content-addresses,
// so a cell and the job it becomes share one identity.
func (c Cell) Scenario() scenario.Spec {
	return scenario.Spec{
		App:       c.App,
		Arch:      c.Arch,
		Objective: c.Objective,
		Algorithm: c.Algorithm,
		Budget:    c.Budget,
		Seed:      c.Seed,
		Seeds:     c.Islands,
		Analyses:  c.Analyses,
	}
}

// Compile builds the runnable scenario the cell describes through the
// scenario compiler (the single spec-to-problem path), including the
// Eq. 2 fit check. The caller owns the result (problems are not safe for
// concurrent use).
func (c Cell) Compile() (*scenario.Compiled, error) {
	return scenario.Compile(c.Scenario())
}

// BuildProblem is Compile reduced to the problem instance, for callers
// that only optimize.
func (c Cell) BuildProblem() (*core.Problem, error) {
	comp, err := c.Compile()
	if err != nil {
		return nil, err
	}
	return comp.Problem, nil
}

// MaxExpandCells is the absolute ceiling on a grid's cell count: an
// engine-level backstop against runaway cross products (services layer
// their own, tighter admission limits on top).
const MaxExpandCells = 1 << 20

// Expand normalizes the spec and returns its cells in deterministic
// order: apps (outermost), archs, objectives, algorithms, budgets, seeds
// (innermost). Every cell is validated cheaply — application graph
// buildable, architecture big enough (Eq. 2), known objective and
// algorithm, positive budget — so downstream executors see only
// well-formed work.
func Expand(spec Spec) ([]Cell, error) {
	spec.normalize()
	if len(spec.Apps) == 0 {
		return nil, fmt.Errorf("sweep: grid needs at least one application")
	}
	if size := spec.Size(); size > MaxExpandCells {
		return nil, fmt.Errorf("sweep: grid expands to %d cells, engine limit %d", size, MaxExpandCells)
	}
	if spec.Islands < 1 {
		return nil, fmt.Errorf("sweep: islands must be >= 1, got %d", spec.Islands)
	}
	for _, obj := range spec.Objectives {
		if _, err := core.ParseObjective(obj); err != nil {
			return nil, err
		}
	}
	for _, algo := range spec.Algorithms {
		if _, err := search.New(algo); err != nil {
			return nil, err
		}
	}
	for _, b := range spec.Budgets {
		if b <= 0 {
			return nil, fmt.Errorf("sweep: budget must be positive, got %d", b)
		}
	}

	cells := make([]Cell, 0, spec.Size())
	for _, appSpec := range spec.Apps {
		app, err := appSpec.Build()
		if err != nil {
			return nil, err
		}
		for _, archSpec := range spec.Archs {
			arch := archSpec
			arch.Normalize(app.NumTasks())
			if tiles := archTiles(arch); tiles < app.NumTasks() {
				return nil, fmt.Errorf("sweep: %s needs %d tiles but %s %dx%d has %d (Eq. 2)",
					app.Name(), app.NumTasks(), arch.Topology, arch.Width, arch.Height, tiles)
			}
			for _, obj := range spec.Objectives {
				for _, algo := range spec.Algorithms {
					for _, budget := range spec.Budgets {
						for _, seed := range spec.Seeds {
							sc := scenario.Spec{
								App:       appSpec,
								Arch:      arch,
								Objective: obj,
								Algorithm: algo,
								Budget:    budget,
								Seed:      seed,
								Seeds:     spec.Islands,
								Analyses:  spec.Analyses,
							}
							// The scenario compiler is the one normalization
							// path; its validation also covers analysis/
							// architecture consistency (e.g. link-failure
							// analysis on a turn-restricted router).
							if _, err := sc.Normalize(); err != nil {
								return nil, err
							}
							cells = append(cells, Cell{
								App:       sc.App,
								Arch:      sc.Arch,
								Objective: sc.Objective,
								Algorithm: sc.Algorithm,
								Budget:    sc.Budget,
								Seed:      sc.Seed,
								Islands:   sc.Seeds,
								Analyses:  sc.Analyses,
							})
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// archTiles computes the tile count of a normalized architecture spec
// without building the network.
func archTiles(a config.ArchSpec) int {
	if a.Topology == "ring" {
		return a.Tiles
	}
	return a.Width * a.Height
}
