package phonocmap_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"phonocmap"
)

// testProblem builds PIP on its smallest mesh — the cheapest bundled
// instance, so parallel tests stay fast.
func testProblem(t *testing.T) *phonocmap.Problem {
	t.Helper()
	g := phonocmap.MustApp("PIP")
	side := phonocmap.SquareForTasks(g.NumTasks())
	net, err := phonocmap.NewMeshNetwork(side, side)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := phonocmap.NewProblem(g, net, phonocmap.MaximizeSNR)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

func TestOptimizeContextReproducesOptimize(t *testing.T) {
	prob := testProblem(t)
	const budget, seed = 400, 11
	want, err := phonocmap.Optimize(prob, "rpbla", budget, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := phonocmap.OptimizeContext(context.Background(), prob, "rpbla", budget, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || !got.Mapping.Equal(want.Mapping) {
		t.Errorf("OptimizeContext diverged from Optimize: %+v vs %+v", got.Score, want.Score)
	}
}

func TestOptimizeContextCancel(t *testing.T) {
	prob := testProblem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := phonocmap.OptimizeContext(ctx, prob, "rs", 100_000_000, 1)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; context not honored", elapsed)
	}
	if err == nil && !res.Cancelled {
		t.Error("run neither errored nor reported Cancelled after context timeout")
	}
}

func TestOptimizeParallelBeatsOrMatchesSequential(t *testing.T) {
	prob := testProblem(t)
	const budget = 400
	seeds := phonocmap.Seeds(1, 4)

	var seqBest phonocmap.RunResult
	for i, seed := range seeds {
		res, err := phonocmap.Optimize(prob, "rpbla", budget, seed)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || res.Score.Better(seqBest.Score) {
			seqBest = res
		}
	}
	par, err := phonocmap.OptimizeParallel(context.Background(), prob, "rpbla", budget, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.Score.Cost > seqBest.Score.Cost {
		t.Errorf("parallel score %v worse than sequential best %v", par.Score.Cost, seqBest.Score.Cost)
	}
	if par.Score != seqBest.Score {
		t.Errorf("parallel best %+v != sequential best %+v (same seeds must reproduce)", par.Score, seqBest.Score)
	}
}

func TestOptimizeParallelUnknownAlgorithm(t *testing.T) {
	prob := testProblem(t)
	if _, err := phonocmap.OptimizeParallel(context.Background(), prob, "nope", 100, phonocmap.Seeds(1, 2), 2); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestSeedsCounts: Seeds returns n seeds counting up from the base, and
// none for n <= 0, where OptimizeParallel then reports that it needs a
// seed instead of running.
func TestSeedsCounts(t *testing.T) {
	prob := testProblem(t)
	for _, tc := range []struct {
		n    int
		want []int64
	}{
		{-1, nil},
		{0, nil},
		{1, []int64{5}},
		{3, []int64{5, 6, 7}},
	} {
		got := phonocmap.Seeds(5, tc.n)
		if !slices.Equal(got, tc.want) {
			t.Errorf("Seeds(5, %d) = %v, want %v", tc.n, got, tc.want)
		}
		if len(got) == 0 {
			if _, err := phonocmap.OptimizeParallel(context.Background(), prob, "rs", 100, got, 2); err == nil {
				t.Errorf("OptimizeParallel ran with Seeds(5, %d)", tc.n)
			}
		}
	}
}
