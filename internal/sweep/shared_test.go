package sweep

import (
	"math"
	"reflect"
	"testing"

	"phonocmap/internal/cg"
	"phonocmap/internal/config"
	"phonocmap/internal/network"
	"phonocmap/internal/scenario"
)

// TestCellRunnerBuildsEachNetworkOnce runs a grid shaped like perfbench's
// table2 sweep (the eight Table II apps on a mesh and a torus, two
// objectives: 32 cells over 8 distinct networks, 3×3 to 6×6) through one
// NewCellRunner on a cache bounded as a local runner's is, and counts the
// network builds and reuses. The counters are process-wide, so this test
// must not run in parallel with others.
func TestCellRunnerBuildsEachNetworkOnce(t *testing.T) {
	var apps []config.AppSpec
	for _, name := range cg.AppNames() {
		apps = append(apps, builtin(name))
	}
	cells, err := Expand(Spec{
		Apps:       apps,
		Archs:      []config.ArchSpec{{Topology: "mesh"}, {Topology: "torus"}},
		Objectives: []string{"snr", "loss"},
		Algorithms: []string{"rs"},
		Budgets:    []int{20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 32 {
		t.Fatalf("grid has %d cells, want 32", len(cells))
	}
	builds, reuses := network.BuildsTotal(), scenario.NetworkReusesTotal()
	results, err := Run(cells, NewCellRunner(scenario.NewNetworkCache(scenario.NetworkCacheBytes)), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %s: %v", r.Cell.Label(), r.Err)
		}
	}
	if got := network.BuildsTotal() - builds; got != 8 {
		t.Errorf("the sweep built %d networks, want 8", got)
	}
	if got := scenario.NetworkReusesTotal() - reuses; got != 24 {
		t.Errorf("the sweep reused networks %d times, want 24", got)
	}
}

// TestSharedNetworksBitIdentical runs one grid three ways: through a
// NewCellRunner on 4 workers, whose concurrent cells share networks and
// path tables (run it under -race), through one on a single worker, and
// through RunCell, which builds every cell's network. Every cell's
// result must be bit-identical across the three. The grid covers each
// searcher family (full evaluations, batch reseats, incremental swaps),
// islands, both table layouts (dense on 3×3 and 4×4, compact on 5×5 and
// DVOPD's 6×6) and the weighted objective.
func TestSharedNetworksBitIdentical(t *testing.T) {
	cells, err := Expand(Spec{
		Apps:       []config.AppSpec{builtin("PIP"), builtin("VOPD"), builtin("MWD"), builtin("Wavelet"), builtin("DVOPD")},
		Archs:      []config.ArchSpec{{Topology: "mesh"}, {Topology: "torus"}},
		Objectives: []string{"snr", "wloss"},
		Algorithms: []string{"rs", "ga", "rpbla"},
		Budgets:    []int{60},
		Islands:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(runner Runner, workers int) []Result {
		t.Helper()
		results, err := Run(cells, runner, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("cell %s: %v", r.Cell.Label(), r.Err)
			}
		}
		return results
	}
	shared4 := run(NewCellRunner(scenario.NewNetworkCache(0)), 4)
	shared1 := run(NewCellRunner(scenario.NewNetworkCache(0)), 1)
	unshared := run(RunCell, 1)
	for i := range cells {
		for _, other := range []struct {
			name string
			r    Result
		}{{"1 shared worker", shared1[i]}, {"unshared compiles", unshared[i]}} {
			a, b := shared4[i].Run, other.r.Run
			if !reflect.DeepEqual(a.Mapping, b.Mapping) || a.Evals != b.Evals ||
				math.Float64bits(a.Score.Cost) != math.Float64bits(b.Score.Cost) ||
				math.Float64bits(a.Score.WorstSNRDB) != math.Float64bits(b.Score.WorstSNRDB) ||
				math.Float64bits(a.Score.WorstLossDB) != math.Float64bits(b.Score.WorstLossDB) ||
				math.Float64bits(a.Score.AvgLossDB) != math.Float64bits(b.Score.AvgLossDB) ||
				a.Score.Conflicts != b.Score.Conflicts {
				t.Errorf("cell %s: 4 shared workers gave %+v, %s %+v", cells[i].Label(), a, other.name, b)
			}
		}
	}
}
