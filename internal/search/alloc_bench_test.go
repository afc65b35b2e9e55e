package search

import (
	"testing"

	"phonocmap/internal/cg"
	"phonocmap/internal/core"
	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

// benchProblem builds the VOPD 4x4 problem without a *testing.T.
func benchProblem(b *testing.B) *core.Problem {
	b.Helper()
	g, err := topo.NewMesh(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := network.New(g, router.Crux(), route.XY{}, photonic.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblem(cg.MustApp("VOPD"), nw, core.MaximizeSNR)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkGASearchAllocs measures a complete 10-generation GA run per
// op with allocation reporting: the population slab, pmx scratch and
// batch-evaluation path mean breeding allocates a bounded constant per
// RUN, not per child. The CI allocation gate and TestGAAllocationBudget
// pin allocs/op against a committed budget — the pre-slab GA (clonePerm
// and map-based pmx per child) sits far above it.
func BenchmarkGASearchAllocs(b *testing.B) {
	prob := benchProblem(b)
	cfg := NewGA()
	budget := 10 * cfg.PopSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := core.NewExploration(prob.Clone(), core.Options{Budget: budget, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.Run(NewGA()); err != nil {
			b.Fatal(err)
		}
	}
}

// gaAllocBudget is the committed allocation budget for one full
// 480-evaluation GA run (setup + 10 generations): population slab,
// pmx/batch scratch, context, the problem's evaluator (and one cloned
// problem per further eval worker) and result copies. The pre-slab GA
// allocated ~3 objects per bred child (≈1400 extra per run), so
// regressions that reintroduce per-child allocation clear this bar by
// an order of magnitude.
const gaAllocBudget = 600

// TestGAAllocationBudget enforces gaAllocBudget in plain `go test` runs
// so allocation regressions fail fast even before the CI -benchmem
// gate.
func TestGAAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measured in full test runs")
	}
	res := testing.Benchmark(BenchmarkGASearchAllocs)
	if a := res.AllocsPerOp(); a > gaAllocBudget {
		t.Errorf("GA run allocates %d objects, budget is %d", a, gaAllocBudget)
	}
}
