package analysis

import (
	"math/rand"
	"sync"
	"testing"

	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

func incTestNetwork(t *testing.T, torus bool) *network.Network {
	t.Helper()
	var g *topo.Grid
	var err error
	if torus {
		g, err = topo.NewTorus(4, 4)
	} else {
		g, err = topo.NewMesh(4, 4)
	}
	if err != nil {
		t.Fatal(err)
	}
	nw, err := network.New(g, router.Crux(), route.XY{}, photonic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func randomComm(rng *rand.Rand, n int) Communication {
	src := rng.Intn(n)
	dst := rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	return Communication{Src: topo.TileID(src), Dst: topo.TileID(dst)}
}

// requireSameResult asserts bit-for-bit equality — Result is plain data,
// so struct equality is exact float equality.
func requireSameResult(t *testing.T, step int, got, want Result) {
	t.Helper()
	if got != want {
		t.Fatalf("step %d: incremental %+v != full %+v", step, got, want)
	}
}

// TestIncrementalMatchesFullEvaluation drives a long random delta
// sequence and checks every intermediate Result against a from-scratch
// Evaluator on the same communication slice, for both the plain and the
// weighted accumulation, on mesh and torus.
func TestIncrementalMatchesFullEvaluation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		torus    bool
		weighted bool
	}{
		{"mesh", false, false},
		{"torus", true, false},
		{"mesh-weighted", false, true},
		{"torus-weighted", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := incTestNetwork(t, tc.torus)
			n := nw.NumTiles()
			rng := rand.New(rand.NewSource(42))

			const m = 20
			comms := make([]Communication, m)
			for i := range comms {
				comms[i] = randomComm(rng, n)
			}
			var weights []float64
			if tc.weighted {
				weights = make([]float64, m)
				for i := range weights {
					weights[i] = 1 + rng.Float64()*9
				}
			}

			full := NewEvaluator(nw)
			fullEval := func() Result {
				var res Result
				var err error
				if tc.weighted {
					res, err = full.EvaluateWeighted(comms, weights)
				} else {
					res, err = full.Evaluate(comms)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			inc := NewIncremental(nw)
			var got Result
			var err error
			if tc.weighted {
				got, err = inc.InitWeighted(comms, weights)
			} else {
				got, err = inc.Init(comms)
			}
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, -1, got, fullEval())

			for step := 0; step < 400; step++ {
				// Replace 1..3 distinct communications.
				k := 1 + rng.Intn(3)
				changed := rng.Perm(m)[:k]
				newComms := make([]Communication, k)
				for i := range newComms {
					newComms[i] = randomComm(rng, n)
				}
				prev := inc.Result()
				got, err = inc.ApplyDelta(changed, newComms)
				if err != nil {
					t.Fatal(err)
				}

				if step%3 == 2 {
					// Undo instead of keeping: the state must revert
					// exactly and stay consistent for later deltas.
					reverted, err := inc.Undo()
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, step, reverted, prev)
					requireSameResult(t, step, reverted, fullEval())
					continue
				}
				for i, ci := range changed {
					comms[ci] = newComms[i]
				}
				requireSameResult(t, step, got, fullEval())
			}
		})
	}
}

// TestIncrementalZeroDelta: an empty changed set is a legal no-op delta
// that returns the unchanged result (it still refreshes the aggregate
// scan, which must be stable).
func TestIncrementalZeroDelta(t *testing.T) {
	nw := incTestNetwork(t, false)
	inc := NewIncremental(nw)
	comms := []Communication{{Src: 0, Dst: 5}, {Src: 1, Dst: 6}, {Src: 2, Dst: 7}}
	before, err := inc.Init(comms)
	if err != nil {
		t.Fatal(err)
	}
	after, err := inc.ApplyDelta(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, 0, after, before)
}

func TestIncrementalErrors(t *testing.T) {
	nw := incTestNetwork(t, false)
	inc := NewIncremental(nw)

	if _, err := inc.ApplyDelta([]int{0}, []Communication{{Src: 0, Dst: 1}}); err == nil {
		t.Error("ApplyDelta before Init should fail")
	}
	if _, err := inc.Undo(); err == nil {
		t.Error("Undo before Init should fail")
	}
	if _, err := inc.Init(nil); err == nil {
		t.Error("Init with no communications should fail")
	}
	if _, err := inc.Init([]Communication{{Src: 0, Dst: 0}}); err == nil {
		t.Error("Init with src == dst should fail")
	}
	if _, err := inc.Init([]Communication{{Src: 0, Dst: 99}}); err == nil {
		t.Error("Init with out-of-range tile should fail")
	}
	if _, err := inc.InitWeighted([]Communication{{Src: 0, Dst: 1}}, []float64{1, 2}); err == nil {
		t.Error("InitWeighted with mismatched weights should fail")
	}
	if _, err := inc.InitWeighted([]Communication{{Src: 0, Dst: 1}}, []float64{0}); err == nil {
		t.Error("InitWeighted with zero total weight should fail")
	}

	comms := []Communication{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}
	if _, err := inc.Init(comms); err != nil {
		t.Fatal(err)
	}
	want := inc.Result()

	cases := []struct {
		name     string
		changed  []int
		newComms []Communication
	}{
		{"length mismatch", []int{0}, nil},
		{"index out of range", []int{5}, []Communication{{Src: 0, Dst: 2}}},
		{"negative index", []int{-1}, []Communication{{Src: 0, Dst: 2}}},
		{"duplicate index", []int{1, 1}, []Communication{{Src: 0, Dst: 2}, {Src: 0, Dst: 3}}},
		{"src == dst", []int{0}, []Communication{{Src: 4, Dst: 4}}},
		{"tile out of range", []int{0}, []Communication{{Src: 0, Dst: 16}}},
	}
	for _, tc := range cases {
		if _, err := inc.ApplyDelta(tc.changed, tc.newComms); err == nil {
			t.Errorf("%s: ApplyDelta should fail", tc.name)
		}
		// A failed delta must leave the state untouched and usable.
		if got := inc.Result(); got != want {
			t.Errorf("%s: failed delta mutated state: %+v != %+v", tc.name, got, want)
		}
	}
	got, err := inc.ApplyDelta([]int{0}, []Communication{{Src: 4, Dst: 5}})
	if err != nil {
		t.Fatalf("delta after failed deltas: %v", err)
	}
	fullRes, err := NewEvaluator(nw).Evaluate([]Communication{{Src: 4, Dst: 5}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, 0, got, fullRes)

	if _, err := inc.Undo(); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Undo(); err == nil {
		t.Error("second Undo should fail (single-level log)")
	}
}

// BenchmarkPathTableBuild5x5 measures building the path table of a 5×5
// Crux/XY mesh, the largest network core scores from a table. A build
// allocates a fixed handful of objects (the element offsets, the slab of
// exactly sized occupancy lists and the table's two halves), whatever
// the network's size; the CI allocation gate pins that count.
func BenchmarkPathTableBuild5x5(b *testing.B) {
	g, err := topo.NewMesh(5, 5)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := network.New(g, router.Crux(), route.XY{}, photonic.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newPathTable(nw); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTableOfBuildsOncePerNetwork asks for a fresh network's path table
// from several goroutines at once: one of them builds it, all get the
// same table, and TableBytes, asked before the build, gives its size.
// The build counter is process-wide, so this test must not run in
// parallel with others.
func TestTableOfBuildsOncePerNetwork(t *testing.T) {
	nw := incTestNetwork(t, false)
	builds := TableBuildsTotal()
	size := TableBytes(nw)
	if got := TableBuildsTotal() - builds; got != 0 {
		t.Fatalf("TableBytes built %d tables", got)
	}
	const n = 8
	tabs := make([]*PathTable, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tabs[i], errs[i] = TableOf(nw)
		}()
	}
	wg.Wait()
	for i := range tabs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if tabs[i] != tabs[0] {
			t.Fatalf("caller %d got another table than caller 0", i)
		}
	}
	if got := TableBuildsTotal() - builds; got != 1 {
		t.Errorf("%d concurrent callers built %d tables, want 1", n, got)
	}
	if got := int64(len(tabs[0].noise))*8 + int64(len(tabs[0].conf)); got != size {
		t.Errorf("the table takes %d bytes, TableBytes said %d", got, size)
	}
}
