package analysis

import (
	"fmt"
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

	// A rejected Init or InitWeighted on a seated engine, with a delta
	// pending, unseats it: deltas and undo fail until the next Init.
	rejects := []struct {
		name string
		init func() (Result, error)
	}{
		{"Init", func() (Result, error) { return inc.Init([]Communication{{Src: 0, Dst: 1}, {Src: 3, Dst: 3}}) }},
		{"InitWeighted", func() (Result, error) { return inc.InitWeighted(comms, []float64{1, -1}) }},
	}
	for _, r := range rejects {
		if _, err := inc.ApplyDelta([]int{0}, []Communication{{Src: 4, Dst: 5}}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.init(); err == nil {
			t.Fatalf("rejected %s: want an error", r.name)
		}
		if _, err := inc.ApplyDelta([]int{0}, []Communication{{Src: 6, Dst: 7}}); err == nil {
			t.Errorf("rejected %s: ApplyDelta should fail", r.name)
		}
		if _, err := inc.Undo(); err == nil {
			t.Errorf("rejected %s: Undo should fail", r.name)
		}
		got, err := inc.Init(comms)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, 0, got, want)
	}
	got, err = inc.ApplyDelta([]int{0}, []Communication{{Src: 4, Dst: 5}})
	if err != nil {
		t.Fatalf("delta after re-Init: %v", err)
	}
	requireSameResult(t, 0, got, fullRes)
}

// BenchmarkPathTableBuild measures building the path table of a 4×4
// Crux/XY mesh, the largest network whose table takes the dense layout,
// and of a 6×6 one, the largest core scores from a table, in the compact
// layout. A build allocates a fixed handful of objects whatever the
// network's size: the element offsets, the slab of exactly sized
// occupancy lists, its cursors, the table and the fill's scratch row,
// then the table's two halves (7 in all on the dense layout) or its
// codes, row offsets, dictionary, dictionary slots and the dictionary's
// exactly sized copy (10 on the compact one); the CI allocation gate
// pins both counts.
func BenchmarkPathTableBuild(b *testing.B) {
	for _, side := range []int{4, 6} {
		nw := gridNetwork(b, side, false, router.Crux())
		dense := nw.NumTiles() <= denseMaxTiles
		name := fmt.Sprintf("compact-%dx%d", side, side)
		if dense {
			name = fmt.Sprintf("dense-%dx%d", side, side)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := newPathTable(nw, dense); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gridNetwork builds a side×side XY-routed mesh or torus of the router.
func gridNetwork(t testing.TB, side int, torus bool, arch *router.Architecture) *network.Network {
	t.Helper()
	g, err := topo.NewMesh(side, side)
	if torus {
		g, err = topo.NewTorus(side, side)
	}
	if err != nil {
		t.Fatal(err)
	}
	nw, err := network.New(g, arch, route.XY{}, photonic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestTableOfBuildsOncePerNetwork asks for a fresh network's path table
// from several goroutines at once, on a 4×4 network (dense layout) and a
// 6×6 one (compact): one of them builds it, all get the same table, and
// the table has the layout its size selects. The build counter is
// process-wide, so this test must not run in parallel with others.
func TestTableOfBuildsOncePerNetwork(t *testing.T) {
	for _, side := range []int{4, 6} {
		nw := gridNetwork(t, side, false, router.Crux())
		builds := TableBuildsTotal()
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
				t.Fatalf("%dx%d: caller %d got another table than caller 0", side, side, i)
			}
		}
		if got := TableBuildsTotal() - builds; got != 1 {
			t.Errorf("%dx%d: %d concurrent callers built %d tables, want 1", side, side, n, got)
		}
		dense := tabs[0].codes == nil
		if want := nw.NumTiles() <= denseMaxTiles; dense != want {
			t.Errorf("%dx%d: dense layout %v, want %v", side, side, dense, want)
		}
	}
}

// TestCompactTableMatchesDense builds both layouts of the same networks
// above the dense layout's tile cap, the Crux/XY 5×5 and 6×6 meshes and
// tori and a Cygnus 6×6 mesh, and compares every ordered pair of paths:
// the noise each injects into the other and their conflicts. One fill
// accumulates both, so this checks how each layout stores the terms;
// TestTableTermsMatchKernel checks the terms against the pair kernel.
// Then it scores random sets through both tables and the pair kernel,
// whole and by deltas with undos, bit for bit.
func TestCompactTableMatchesDense(t *testing.T) {
	cases := []struct {
		side  int
		torus bool
		arch  *router.Architecture
	}{
		{5, false, router.Crux()}, {5, true, router.Crux()},
		{6, false, router.Crux()}, {6, true, router.Crux()},
		{6, false, router.Cygnus()},
	}
	for _, c := range cases {
		nw := gridNetwork(t, c.side, c.torus, c.arch)
		kind := "mesh"
		if c.torus {
			kind = "torus"
		}
		t.Run(fmt.Sprintf("%s-%s-%dx%d", c.arch.Name(), kind, c.side, c.side), func(t *testing.T) {
			compact, err := newPathTable(nw, false)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := newPathTable(nw, true)
			if err != nil {
				t.Fatal(err)
			}
			stride := int32(dense.stride)
			for p := int32(0); p < stride; p++ {
				for q := int32(0); q < stride; q++ {
					x, s := compact.term(p, q)
					pq, qp := p*stride+q, q*stride+p
					if x.noise[s] != dense.noise[pq] || x.noise[s^1] != dense.noise[qp] || x.conf != int64(dense.conf[pq]) {
						t.Fatalf("paths %d, %d: compact (%d, %d, %d), dense (%d, %d, %d)", p, q,
							x.noise[s], x.noise[s^1], x.conf, dense.noise[pq], dense.noise[qp], dense.conf[pq])
					}
				}
			}
			t.Logf("%d distinct terms, %d bytes (dense %d)", len(compact.terms), compact.Bytes(), dense.Bytes())

			n := nw.NumTiles()
			rng := rand.New(rand.NewSource(11))
			kernel := NewEvaluator(nw)
			for trial := 0; trial < 30; trial++ {
				comms := make([]Communication, 1+rng.Intn(80))
				for i := range comms {
					comms[i] = randomComm(rng, n)
				}
				want, err := kernel.Evaluate(comms)
				if err != nil {
					t.Fatal(err)
				}
				for _, tab := range []*PathTable{compact, dense} {
					got, err := NewTableEvaluator(tab).Evaluate(comms)
					if err != nil {
						t.Fatal(err)
					}
					requireBitIdentical(t, fmt.Sprintf("trial %d", trial), got, want)
				}
			}

			comms := make([]Communication, 60)
			for i := range comms {
				comms[i] = randomComm(rng, n)
			}
			inc := NewTableIncremental(compact)
			if _, err := inc.Init(comms); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 60; step++ {
				changed := rng.Perm(len(comms))[:1+rng.Intn(8)]
				repl := make([]Communication, len(changed))
				next := append([]Communication(nil), comms...)
				for i, ci := range changed {
					repl[i] = randomComm(rng, n)
					next[ci] = repl[i]
				}
				got, err := inc.ApplyDelta(changed, repl)
				if err != nil {
					t.Fatal(err)
				}
				want, err := kernel.Evaluate(next)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, fmt.Sprintf("delta %d", step), got, want)
				if rng.Intn(3) == 0 {
					if got, err = inc.Undo(); err != nil {
						t.Fatal(err)
					}
					if want, err = kernel.Evaluate(comms); err != nil {
						t.Fatal(err)
					}
					requireBitIdentical(t, fmt.Sprintf("undo %d", step), got, want)
					continue
				}
				comms = next
			}
		})
	}
}

// TestTableTermsMatchKernel checks every path pair's table term against
// the pair kernel itself: the two-communication set {p, q}, scored by a
// kernel Evaluator, must leave in its two accumulators the noise the
// table says q injects into p and p into q, and count the table's
// conflicts. It covers every ordered pair, the diagonal included, of a
// 4×4 Crux/XY mesh in both layouts, and a seeded sample of pairs, plus
// the diagonal, of the 6×6 mesh and torus in the compact layout.
func TestTableTermsMatchKernel(t *testing.T) {
	cases := []struct {
		side    int
		torus   bool
		dense   bool
		samples int // 0: every ordered pair
	}{
		{4, false, true, 0}, {4, false, false, 0},
		{6, false, false, 20000}, {6, true, false, 20000},
	}
	for _, c := range cases {
		nw := gridNetwork(t, c.side, c.torus, router.Crux())
		kind, layout := "mesh", "compact"
		if c.torus {
			kind = "torus"
		}
		if c.dense {
			layout = "dense"
		}
		t.Run(fmt.Sprintf("%s-%dx%d-%s", kind, c.side, c.side, layout), func(t *testing.T) {
			tab, err := newPathTable(nw, c.dense)
			if err != nil {
				t.Fatal(err)
			}
			n := int32(nw.NumTiles())
			var paths []int32
			for p := int32(0); p < n*n; p++ {
				if p/n != p%n {
					paths = append(paths, p)
				}
			}
			kernel := NewEvaluator(nw)
			check := func(p, q int32) {
				comms := []Communication{
					{Src: topo.TileID(p / n), Dst: topo.TileID(p % n)},
					{Src: topo.TileID(q / n), Dst: topo.TileID(q % n)},
				}
				res, err := kernel.Evaluate(comms)
				if err != nil {
					t.Fatal(err)
				}
				intoP, intoQ, conf := tableTerm(tab, p, q)
				if kernel.acc[0] != intoP || kernel.acc[1] != intoQ || int64(res.Conflicts) != conf {
					t.Fatalf("paths %d, %d: table (%d, %d, %d), kernel (%d, %d, %d)",
						p, q, intoP, intoQ, conf, kernel.acc[0], kernel.acc[1], res.Conflicts)
				}
			}
			if c.samples == 0 {
				for _, p := range paths {
					for _, q := range paths {
						check(p, q)
					}
				}
				return
			}
			for _, p := range paths {
				check(p, p)
			}
			rng := rand.New(rand.NewSource(int64(c.side)*2 + 1))
			for range c.samples {
				check(paths[rng.Intn(len(paths))], paths[rng.Intn(len(paths))])
			}
		})
	}
}

// tableTerm reads path pair (p, q) from either layout: the noise q
// injects into p, the noise p injects into q, and the pair's conflicts.
func tableTerm(t *PathTable, p, q int32) (intoP, intoQ, conf int64) {
	if t.codes != nil {
		x, s := t.term(p, q)
		return x.noise[s], x.noise[s^1], x.conf
	}
	stride := int32(t.stride)
	return t.noise[p*stride+q], t.noise[q*stride+p], int64(t.conf[p*stride+q])
}
