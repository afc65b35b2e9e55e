package phonocmap_test

// Benchmark harness for the paper's evaluation. One benchmark family per
// table/figure:
//
//   - BenchmarkFig3Eval*      — the unit operation of Figure 3: evaluate
//     one random mapping (worst-case SNR + loss) on the app's mesh.
//     Figure 3 itself is 100 000 of these per app; regenerate the actual
//     plots with `go run ./cmd/phonocmap-bench fig3`.
//   - BenchmarkTable2*        — one Table II cell at a reduced budget:
//     a full optimization run of each paper algorithm. Regenerate the
//     full table with `go run ./cmd/phonocmap-bench table2`.
//   - BenchmarkNetworkBuild*  — architecture-model cost: expanding all
//     tile-pair paths of mesh networks.
//   - BenchmarkAblation*      — the design-choice ablations in DESIGN.md.
//
// Run everything with: go test -bench=. -benchmem

import (
	"context"
	"math/rand"
	"testing"

	"phonocmap"
)

func benchProblem(b *testing.B, app string, torus bool, obj phonocmap.Objective) *phonocmap.Problem {
	b.Helper()
	g := phonocmap.MustApp(app)
	side := phonocmap.SquareForTasks(g.NumTasks())
	var net *phonocmap.Network
	var err error
	if torus {
		net, err = phonocmap.NewTorusNetwork(side, side)
	} else {
		net, err = phonocmap.NewMeshNetwork(side, side)
	}
	if err != nil {
		b.Fatal(err)
	}
	prob, err := phonocmap.NewProblem(g, net, obj)
	if err != nil {
		b.Fatal(err)
	}
	return prob
}

// benchFig3Eval measures one random-mapping evaluation — the operation
// Figure 3 performs 100 000 times per application.
func benchFig3Eval(b *testing.B, app string) {
	prob := benchProblem(b, app, false, phonocmap.MaximizeSNR)
	rng := rand.New(rand.NewSource(1))
	mappings := make([]phonocmap.Mapping, 64)
	for i := range mappings {
		m, err := phonocmap.RandomMapping(prob, rng)
		if err != nil {
			b.Fatal(err)
		}
		mappings[i] = m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phonocmap.Evaluate(prob, mappings[i%len(mappings)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3EvalPIP(b *testing.B)     { benchFig3Eval(b, "PIP") }
func BenchmarkFig3EvalMWD(b *testing.B)     { benchFig3Eval(b, "MWD") }
func BenchmarkFig3EvalMPEG4(b *testing.B)   { benchFig3Eval(b, "MPEG-4") }
func BenchmarkFig3EvalVOPD(b *testing.B)    { benchFig3Eval(b, "VOPD") }
func BenchmarkFig3EvalWavelet(b *testing.B) { benchFig3Eval(b, "Wavelet") }
func BenchmarkFig3EvalDVOPD(b *testing.B)   { benchFig3Eval(b, "DVOPD") }
func BenchmarkFig3Eval263Dec(b *testing.B)  { benchFig3Eval(b, "263dec_mp3dec") }
func BenchmarkFig3Eval263Enc(b *testing.B)  { benchFig3Eval(b, "263enc_mp3enc") }

// benchTable2Cell measures one optimization run (one Table II cell) at a
// reduced budget so a full -bench pass stays tractable.
func benchTable2Cell(b *testing.B, app, algo string, torus bool) {
	const budget = 1000
	prob := benchProblem(b, app, torus, phonocmap.MaximizeSNR)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phonocmap.Optimize(prob, algo, budget, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2VOPDMeshRS(b *testing.B)     { benchTable2Cell(b, "VOPD", "rs", false) }
func BenchmarkTable2VOPDMeshGA(b *testing.B)     { benchTable2Cell(b, "VOPD", "ga", false) }
func BenchmarkTable2VOPDMeshRPBLA(b *testing.B)  { benchTable2Cell(b, "VOPD", "rpbla", false) }
func BenchmarkTable2VOPDTorusRS(b *testing.B)    { benchTable2Cell(b, "VOPD", "rs", true) }
func BenchmarkTable2VOPDTorusGA(b *testing.B)    { benchTable2Cell(b, "VOPD", "ga", true) }
func BenchmarkTable2VOPDTorusRPBLA(b *testing.B) { benchTable2Cell(b, "VOPD", "rpbla", true) }
func BenchmarkTable2PIPMeshRPBLA(b *testing.B)   { benchTable2Cell(b, "PIP", "rpbla", false) }
func BenchmarkTable2DVOPDMeshRPBLA(b *testing.B) { benchTable2Cell(b, "DVOPD", "rpbla", false) }

// Extension algorithms (beyond the paper's three).
func BenchmarkTable2VOPDMeshSA(b *testing.B)   { benchTable2Cell(b, "VOPD", "sa", false) }
func BenchmarkTable2VOPDMeshTabu(b *testing.B) { benchTable2Cell(b, "VOPD", "tabu", false) }

// BenchmarkNetworkBuild measures the eager all-pairs element-level path
// expansion of the network model.
func benchNetworkBuild(b *testing.B, side int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := phonocmap.NewMeshNetwork(side, side); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkBuild3x3(b *testing.B) { benchNetworkBuild(b, 3) }
func BenchmarkNetworkBuild4x4(b *testing.B) { benchNetworkBuild(b, 4) }
func BenchmarkNetworkBuild6x6(b *testing.B) { benchNetworkBuild(b, 6) }
func BenchmarkNetworkBuild8x8(b *testing.B) { benchNetworkBuild(b, 8) }

// BenchmarkAnalyses measures the two post-optimization analyses that
// rebuild paths, in the shapes the service's analysed jobs request, on a
// fixed (identity) mapping: the link-failure study of PIP on a 3x3 Cygnus
// mesh (12 cuts) and the 8-sample robustness study of MWD on a 4x4
// Crux/XY mesh. Each cut and each sample builds only the mapped
// communications' paths, so allocs/op tracks their count, not the
// network's pair count, and one evaluator scores a whole study.
func BenchmarkAnalyses(b *testing.B) {
	identity := func(n int) phonocmap.Mapping {
		m := make(phonocmap.Mapping, n)
		for i := range m {
			m[i] = phonocmap.TileID(i)
		}
		return m
	}
	pip := phonocmap.MustApp("PIP")
	cygnus, err := phonocmap.NewNetwork(phonocmap.ArchSpec{Topology: "mesh", Width: 3, Height: 3, Router: "cygnus", Routing: "xy"})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("link_failures", func(b *testing.B) {
		m := identity(pip.NumTasks())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := phonocmap.AssessLinkFailures(cygnus, pip, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	mwd := phonocmap.MustApp("MWD")
	crux, err := phonocmap.NewMeshNetwork(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("robustness", func(b *testing.B) {
		m := identity(mwd.NumTasks())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := phonocmap.AssessVariation(crux, mwd, m, 8, 0.1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationObjective compares the cost of the two objectives on
// the same instance: SNR evaluation aggregates crosstalk over shared
// elements, loss evaluation only accumulates path losses — the paper's
// "holistic view" overhead (DESIGN.md ablation index).
func BenchmarkAblationObjectiveLoss(b *testing.B) {
	prob := benchProblem(b, "VOPD", false, phonocmap.MinimizeLoss)
	rng := rand.New(rand.NewSource(1))
	m, err := phonocmap.RandomMapping(prob, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phonocmap.Evaluate(prob, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationObjectiveSNR(b *testing.B) {
	prob := benchProblem(b, "VOPD", false, phonocmap.MaximizeSNR)
	rng := rand.New(rand.NewSource(1))
	m, err := phonocmap.RandomMapping(prob, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phonocmap.Evaluate(prob, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRouter compares evaluation cost across router
// microarchitectures (crux vs crossbar element counts).
func BenchmarkAblationRouterCrossbar(b *testing.B) {
	g := phonocmap.MustApp("VOPD")
	spec := phonocmap.ArchSpec{Topology: "mesh", Width: 4, Height: 4, Router: "crossbar", Routing: "xy"}
	net, err := phonocmap.NewNetwork(spec)
	if err != nil {
		b.Fatal(err)
	}
	prob, err := phonocmap.NewProblem(g, net, phonocmap.MaximizeSNR)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	m, err := phonocmap.RandomMapping(prob, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phonocmap.Evaluate(prob, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationObjectiveWeighted measures the bandwidth-weighted
// objective (extension) against the worst-case objectives above.
func BenchmarkAblationObjectiveWeighted(b *testing.B) {
	prob := benchProblem(b, "VOPD", false, phonocmap.MinimizeWeightedLoss)
	rng := rand.New(rand.NewSource(1))
	m, err := phonocmap.RandomMapping(prob, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phonocmap.Evaluate(prob, m); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMultiSeed runs the same 4-seed multi-start search with a given
// worker count. workers=1 serializes the islands (the sequential
// baseline); workers=4 is the parallel islands mode. The pair tracks the
// wall-clock speedup of OptimizeParallel across PRs:
//
//	go test -bench 'OptimizeSequential4Seeds|OptimizeParallel4Seeds' -benchtime 3x
func benchMultiSeed(b *testing.B, app, algo string, workers int) {
	prob := benchProblem(b, app, false, phonocmap.MaximizeSNR)
	seeds := phonocmap.Seeds(1, 4)
	const budget = 1500
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phonocmap.OptimizeParallel(context.Background(), prob, algo, budget, seeds, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeSequential4Seeds(b *testing.B) { benchMultiSeed(b, "VOPD", "rs", 1) }
func BenchmarkOptimizeParallel4Seeds(b *testing.B)   { benchMultiSeed(b, "VOPD", "rs", 4) }

// The same pair on the largest bundled app, where evaluations are most
// expensive and parallel scaling matters most.
func BenchmarkOptimizeSequential4SeedsDVOPD(b *testing.B) { benchMultiSeed(b, "DVOPD", "rs", 1) }
func BenchmarkOptimizeParallel4SeedsDVOPD(b *testing.B)   { benchMultiSeed(b, "DVOPD", "rs", 4) }

// BenchmarkTable2VOPDMeshMemetic covers the memetic extension algorithm.
func BenchmarkTable2VOPDMeshMemetic(b *testing.B) { benchTable2Cell(b, "VOPD", "memetic", false) }

// BenchmarkWDMAllocate measures the wavelength-allocation extension.
func BenchmarkWDMAllocate(b *testing.B) {
	app := phonocmap.MustApp("MPEG-4")
	net, err := phonocmap.NewMeshNetwork(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	m := make(phonocmap.Mapping, app.NumTasks())
	for i := range m {
		m[i] = phonocmap.TileID(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phonocmap.AllocateWavelengths(net, app, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateFullVsIncremental is the hot-path comparison of the
// incremental delta-evaluation engine against full re-evaluation on the
// operation every swap searcher performs per step: swap two tiles, score
// the result. The equal-budget DSE protocol makes evals/sec the solution
// quality, so this ratio is the effective search-budget multiplier. The
// dense random CGs stress the worst case (many communications per task).
func BenchmarkEvaluateFullVsIncremental(b *testing.B) {
	cases := []struct {
		name         string
		side         int
		tasks, edges int
	}{
		{"4x4", 4, 14, 48},
		{"8x8", 8, 56, 220},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(1))
		app, err := phonocmap.RandomApp(rng, tc.tasks, tc.edges)
		if err != nil {
			b.Fatal(err)
		}
		net, err := phonocmap.NewMeshNetwork(tc.side, tc.side)
		if err != nil {
			b.Fatal(err)
		}
		prob, err := phonocmap.NewProblem(app, net, phonocmap.MaximizeSNR)
		if err != nil {
			b.Fatal(err)
		}
		m0, err := phonocmap.RandomMapping(prob, rng)
		if err != nil {
			b.Fatal(err)
		}
		// One fixed random swap sequence, shared by both paths.
		numTiles := net.NumTiles()
		type swap struct{ a, b phonocmap.TileID }
		seq := make([]swap, 512)
		for i := range seq {
			a := rng.Intn(numTiles)
			c := rng.Intn(numTiles - 1)
			if c >= a {
				c++
			}
			seq[i] = swap{a: phonocmap.TileID(a), b: phonocmap.TileID(c)}
		}
		applySwap := func(m phonocmap.Mapping, taskOf []int, s swap) {
			ta, tb := taskOf[s.a], taskOf[s.b]
			taskOf[s.a], taskOf[s.b] = tb, ta
			if ta >= 0 {
				m[ta] = s.b
			}
			if tb >= 0 {
				m[tb] = s.a
			}
		}
		newTaskOf := func(m phonocmap.Mapping) []int {
			taskOf := make([]int, numTiles)
			for t := range taskOf {
				taskOf[t] = -1
			}
			for task, tile := range m {
				taskOf[tile] = task
			}
			return taskOf
		}

		b.Run("full-"+tc.name, func(b *testing.B) {
			m := m0.Clone()
			taskOf := newTaskOf(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				applySwap(m, taskOf, seq[i%len(seq)])
				if _, err := phonocmap.Evaluate(prob, m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("incremental-"+tc.name, func(b *testing.B) {
			sess, err := phonocmap.NewSwapSession(prob, m0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := seq[i%len(seq)]
				if _, err := sess.EvaluateSwap(s.a, s.b); err != nil {
					b.Fatal(err)
				}
				sess.Commit()
			}
		})
	}
}

// BenchmarkSimulate measures the traffic-simulator extension on a mapped
// benchmark application.
func BenchmarkSimulate(b *testing.B) {
	app := phonocmap.MustApp("VOPD")
	net, err := phonocmap.NewMeshNetwork(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	m := make(phonocmap.Mapping, app.NumTasks())
	for i := range m {
		m[i] = phonocmap.TileID(i)
	}
	cfg := phonocmap.SimConfig{DurationNs: 50_000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := phonocmap.Simulate(net, app, m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
