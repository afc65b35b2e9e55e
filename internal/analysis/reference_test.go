package analysis

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"phonocmap/internal/cg"
	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

// The frozen reference: the victim-major evaluation this package ran
// before the element-major pair kernel. For each victim step it visits
// every other occupant of the element, found by index into that
// occupant's path, and classifies the ordered pair with refStepEffect.
// It shares nothing with kernel.go but fixedNoise and noiseFromFixed, so
// a fault in the kernel cannot hide behind the Evaluator/Incremental
// differential tests, which run the kernel on both sides.

type refOccupant struct {
	comm int
	step int
}

func refStepEffect(leakLin *[3][2]float64, vs, as *network.Step) (conflict bool, contrib int64) {
	if as.In == vs.In || as.Out == vs.Out {
		return true, 0
	}
	if !photonic.LeaksInto(vs.Kind, vs.State, as.In, vs.Out) {
		return false, 0
	}
	return false, fixedNoise(leakLin[vs.Kind][vs.State] * as.LinLossBefore * vs.LinDownstream)
}

// refEvaluate is the victim-major Evaluator.run: weights and channel may
// be nil. It also returns the per-communication details.
func refEvaluate(nw *network.Network, comms []Communication, weights []float64, channel []int) (Result, []Detail) {
	var leakLin [3][2]float64
	p := nw.Params()
	for _, k := range []photonic.Kind{photonic.Crossing, photonic.PPSE, photonic.CPSE} {
		for _, s := range []photonic.State{photonic.Off, photonic.On} {
			leakLin[k][s] = photonic.DBToLinear(p.LeakCoeff(k, s))
		}
	}
	paths := make([]*network.Path, len(comms))
	occupants := make([][]refOccupant, nw.NumElements())
	for ci, c := range comms {
		paths[ci] = nw.Path(c.Src, c.Dst)
		for si := range paths[ci].Steps {
			g := paths[ci].Steps[si].Node
			occupants[g] = append(occupants[g], refOccupant{comm: ci, step: si})
		}
	}

	details := make([]Detail, len(comms))
	res := Result{
		WorstLossDB:  0,
		WorstSNRDB:   math.Inf(1),
		WorstLossIdx: -1,
		WorstSNRIdx:  -1,
	}
	lossSum, weightSum := 0.0, 0.0
	for vi, vp := range paths {
		var acc int64
		for si := range vp.Steps {
			vs := &vp.Steps[si]
			occ := occupants[vs.Node]
			if len(occ) < 2 {
				continue
			}
			for _, o := range occ {
				if o.comm == vi {
					continue
				}
				if channel != nil && channel[o.comm] != channel[vi] {
					continue
				}
				conflict, contrib := refStepEffect(&leakLin, vs, &paths[o.comm].Steps[o.step])
				if conflict {
					res.Conflicts++
					continue
				}
				acc += contrib
			}
		}
		loss := vp.TotalLoss
		if res.WorstLossIdx < 0 || loss < res.WorstLossDB {
			res.WorstLossDB = loss
			res.WorstLossIdx = vi
		}
		w := 1.0
		if weights != nil {
			w = weights[vi]
		}
		lossSum += w * loss
		weightSum += w
		snr := math.Inf(1)
		noiseDB := math.Inf(-1)
		if acc > 0 {
			noiseDB = photonic.LinearToDB(noiseFromFixed(acc))
			snr = loss - noiseDB
		}
		if res.WorstSNRIdx < 0 || snr < res.WorstSNRDB {
			res.WorstSNRDB = snr
			res.WorstSNRIdx = vi
		}
		details[vi] = Detail{LossDB: loss, NoiseDB: noiseDB, SNRDB: snr}
	}
	if weightSum > 0 {
		res.AvgLossDB = lossSum / weightSum
	}
	return res, details
}

// requireBitIdentical compares two Results field by field, floats by
// their bit patterns.
func requireBitIdentical(t testing.TB, what string, got, want Result) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"WorstLossDB", got.WorstLossDB, want.WorstLossDB},
		{"WorstSNRDB", got.WorstSNRDB, want.WorstSNRDB},
		{"AvgLossDB", got.AvgLossDB, want.AvgLossDB},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s = %v (%#x), reference %v (%#x)", what, f.name, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
	if got.WorstLossIdx != want.WorstLossIdx || got.WorstSNRIdx != want.WorstSNRIdx || got.Conflicts != want.Conflicts {
		t.Fatalf("%s: indices/conflicts (%d, %d, %d), reference (%d, %d, %d)", what,
			got.WorstLossIdx, got.WorstSNRIdx, got.Conflicts, want.WorstLossIdx, want.WorstSNRIdx, want.Conflicts)
	}
}

type refNet struct {
	name string
	nw   *network.Network
}

var (
	refNetsOnce sync.Once
	refNetsAll  []refNet
	refNetsErr  error
)

// refNetworks builds every router on a mesh and a torus under XY
// routing, once per test binary: 4×4 first (the fuzz seeds 0–5 of the
// committed corpus pick these), then 3×3 and 5×5, the smallest and
// largest networks core scores from a path table.
func refNetworks(t testing.TB) []refNet {
	t.Helper()
	refNetsOnce.Do(func() {
		for _, side := range []int{4, 3, 5} {
			for _, rname := range router.Names() {
				for _, torus := range []bool{false, true} {
					arch, err := router.ByName(rname)
					if err != nil {
						refNetsErr = err
						return
					}
					g, kind := (*topo.Grid)(nil), "mesh"
					if torus {
						g, err = topo.NewTorus(side, side)
						kind = "torus"
					} else {
						g, err = topo.NewMesh(side, side)
					}
					if err != nil {
						refNetsErr = err
						return
					}
					nw, err := network.New(g, arch, route.XY{}, photonic.DefaultParams())
					if err != nil {
						refNetsErr = err
						return
					}
					name := rname + "-" + kind
					if side != 4 {
						name += fmt.Sprintf("-%dx%d", side, side)
					}
					refNetsAll = append(refNetsAll, refNet{name: name, nw: nw})
				}
			}
		}
	})
	if refNetsErr != nil {
		t.Fatal(refNetsErr)
	}
	return refNetsAll
}

// engines are the two evaluation engines every reference test runs: the
// pair kernel, and the network's path table.
var engines = []string{"kernel", "table"}

// newEvaluatorOn returns an evaluator on nw scoring with the engine.
func newEvaluatorOn(t testing.TB, nw *network.Network, engine string) *Evaluator {
	t.Helper()
	if engine == "kernel" {
		return NewEvaluator(nw)
	}
	tab, err := TableOf(nw)
	if err != nil {
		t.Fatal(err)
	}
	return NewTableEvaluator(tab)
}

// newIncrementalOn returns an incremental engine on nw scoring with the
// engine.
func newIncrementalOn(t testing.TB, nw *network.Network, engine string) *Incremental {
	t.Helper()
	if engine == "kernel" {
		return NewIncremental(nw)
	}
	tab, err := TableOf(nw)
	if err != nil {
		t.Fatal(err)
	}
	return NewTableIncremental(tab)
}

// TestEvaluatorMatchesReference checks every Evaluator form on both
// engines against the frozen victim-major reference on random
// communication sets, sparse to dense (repeated pairs included, which
// contend on every shared step and, on the table, read its diagonal),
// and on a dense 8×8 instance whose occupancy lists are long. The 8×8
// instance runs the kernel only: its table would take 144 MiB, and core
// never builds one that large.
func TestEvaluatorMatchesReference(t *testing.T) {
	for _, rn := range refNetworks(t) {
		t.Run(rn.name, func(t *testing.T) {
			for _, engine := range engines {
				t.Run(engine, func(t *testing.T) {
					n := rn.nw.NumTiles()
					rng := rand.New(rand.NewSource(7))
					ev := newEvaluatorOn(t, rn.nw, engine)
					var details []Detail
					for trial := 0; trial < 40; trial++ {
						m := 1 + rng.Intn(60)
						comms := make([]Communication, m)
						weights := make([]float64, m)
						channel := make([]int, m)
						for i := range comms {
							comms[i] = randomComm(rng, n)
							weights[i] = rng.Float64() * 10
							channel[i] = rng.Intn(3)
						}
						weights[0] += 1 // a positive sum
						details = checkEvaluatorForms(t, ev, comms, weights, channel, details, fmt.Sprintf("trial %d (m=%d)", trial, m))
					}
				})
			}
		})
	}

	// A seeded 56-task/220-edge CG on an 8×8 Crux/XY mesh, the dense
	// benchmark instance, under a few random mappings. Its occupancy lists
	// hold a median of 10 steps and up to 33, in up to 5 classes, where
	// the 4×4 sets above reach 20 steps at most.
	t.Run("crux-mesh-8x8-dense", func(t *testing.T) {
		g, err := topo.NewMesh(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := network.New(g, router.Crux(), route.XY{}, photonic.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		app, err := cg.RandomConnected(rng, 56, 220)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(nw)
		var details []Detail
		for trial := 0; trial < 4; trial++ {
			mapping := rng.Perm(nw.NumTiles())
			comms := make([]Communication, app.NumEdges())
			weights := make([]float64, app.NumEdges())
			channel := make([]int, app.NumEdges())
			for i, e := range app.Edges() {
				comms[i] = Communication{Src: topo.TileID(mapping[e.Src]), Dst: topo.TileID(mapping[e.Dst])}
				weights[i] = e.Bandwidth
				channel[i] = rng.Intn(3)
			}
			details = checkEvaluatorForms(t, ev, comms, weights, channel, details, fmt.Sprintf("mapping %d", trial))
		}
	})
}

// checkEvaluatorForms runs Evaluate, Detailed, EvaluateWeighted and
// EvaluateChanneled on one communication set and compares each with the
// frozen reference bit for bit. It returns the details buffer for reuse.
func checkEvaluatorForms(t *testing.T, ev *Evaluator, comms []Communication, weights []float64, channel []int, details []Detail, what string) []Detail {
	t.Helper()
	nw := ev.Network()
	want, wantDetails := refEvaluate(nw, comms, nil, nil)
	got, err := ev.Evaluate(comms)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, what+" Evaluate", got, want)

	got, details, err = ev.Detailed(comms, details)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, what+" Detailed", got, want)
	for i := range details {
		g, w := details[i], wantDetails[i]
		if math.Float64bits(g.LossDB) != math.Float64bits(w.LossDB) ||
			math.Float64bits(g.NoiseDB) != math.Float64bits(w.NoiseDB) ||
			math.Float64bits(g.SNRDB) != math.Float64bits(w.SNRDB) {
			t.Fatalf("%s: detail %d = %+v, reference %+v", what, i, g, w)
		}
	}

	want, _ = refEvaluate(nw, comms, weights, nil)
	if got, err = ev.EvaluateWeighted(comms, weights); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, what+" EvaluateWeighted", got, want)

	want, _ = refEvaluate(nw, comms, nil, channel)
	if got, err = ev.EvaluateChanneled(comms, channel); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, what+" EvaluateChanneled", got, want)
	return details
}

// TestPairTableMatchesReference checks the pair table against the frozen
// reference's classifier on every pair of class bytes, both directions.
// Steps that network builds make leak both ways or neither (out is
// Traverse of in), so the evaluation tests cannot tell the two leak bits
// apart; the table's other class pairs can.
func TestPairTableMatchesReference(t *testing.T) {
	leakLin := [3][2]float64{{1, 1}, {1, 1}, {1, 1}}
	step := func(c int) network.Step {
		return network.Step{
			Kind: photonic.Kind(c >> 5), State: photonic.State(c >> 4 & 1),
			In: photonic.Port(c >> 2 & 3), Out: photonic.Port(c & 3),
			LinLossBefore: 1, LinDownstream: 1,
		}
	}
	const classes = int(photonic.CPSE+1) << 5 // every kind, state and port pair
	for x := 0; x < classes; x++ {
		for y := 0; y < classes; y++ {
			sx, sy := step(x), step(y)
			conflict, intoX := refStepEffect(&leakLin, &sx, &sy)
			_, intoY := refStepEffect(&leakLin, &sy, &sx)
			got := pairOf(uint8(x), uint8(y))
			if (got&contends != 0) != conflict || (got&leaksIntoFirst != 0) != (intoX > 0) || (got&leaksIntoSecond != 0) != (intoY > 0) {
				t.Fatalf("pairs[%07b][%07b] = %03b; reference: conflict %v, leaks into first %v, into second %v",
					x, y, got, conflict, intoX > 0, intoY > 0)
			}
		}
	}
}

// TestIncrementalMatchesReference drives ApplyDelta/Undo sequences on
// both engines whose deltas fall on both sides of each engine's rebuild
// threshold — single communications, a third, half, most and all of the
// set — and checks every state against the frozen reference. Every Undo
// must restore the previous result, and on the kernel every occupancy
// list.
func TestIncrementalMatchesReference(t *testing.T) {
	for _, rn := range refNetworks(t) {
		for _, weighted := range []bool{false, true} {
			name := rn.name
			if weighted {
				name += "-weighted"
			}
			t.Run(name, func(t *testing.T) {
				for _, engine := range engines {
					t.Run(engine, func(t *testing.T) {
						n := rn.nw.NumTiles()
						rng := rand.New(rand.NewSource(11))
						const m = 40
						comms := make([]Communication, m)
						for i := range comms {
							comms[i] = randomComm(rng, n)
						}
						var weights []float64
						if weighted {
							weights = make([]float64, m)
							for i := range weights {
								weights[i] = 1 + rng.Float64()*9
							}
						}
						inc := newIncrementalOn(t, rn.nw, engine)
						defer inc.Release()
						var got Result
						var err error
						if weighted {
							got, err = inc.InitWeighted(comms, weights)
						} else {
							got, err = inc.Init(comms)
						}
						if err != nil {
							t.Fatal(err)
						}
						want, _ := refEvaluate(rn.nw, comms, weights, nil)
						requireBitIdentical(t, "Init", got, want)

						sizes := []int{1, 2, 3, m / 3, m * rebuildNum / rebuildDen, m*rebuildNum/rebuildDen + 1,
							m * tableRecomputeNum / tableRecomputeDen, m*tableRecomputeNum/tableRecomputeDen + 1, m / 2, m * 9 / 10, m}
						for step := 0; step < 120; step++ {
							k := sizes[step%len(sizes)]
							changed := rng.Perm(m)[:k]
							newComms := make([]Communication, k)
							for i := range newComms {
								newComms[i] = randomComm(rng, n)
							}
							prev := inc.Result()
							prevOcc := occupancyOf(inc)
							if got, err = inc.ApplyDelta(changed, newComms); err != nil {
								t.Fatal(err)
							}
							next := append([]Communication(nil), comms...)
							for i, ci := range changed {
								next[ci] = newComms[i]
							}
							what := fmt.Sprintf("step %d (|Δ|=%d)", step, k)
							want, _ := refEvaluate(rn.nw, next, weights, nil)
							requireBitIdentical(t, what+" ApplyDelta", got, want)
							if rng.Intn(3) == 0 {
								if got, err = inc.Undo(); err != nil {
									t.Fatal(err)
								}
								requireBitIdentical(t, what+" Undo", got, prev)
								want, _ := refEvaluate(rn.nw, comms, weights, nil)
								requireBitIdentical(t, what+" Undo", got, want)
								if engine == "kernel" {
									requireSameOccupancy(t, what+" Undo", occupancyOf(inc), prevOcc)
								}
								continue
							}
							comms = next
						}

					})
				}
			})
		}
	}
}

// occupancyOf copies every element's occupancy list, each sorted by
// communication then class, so two states compare as multisets.
func occupancyOf(inc *Incremental) [][]entry {
	lists := make([][]entry, len(inc.occ.lists))
	for g, occ := range inc.occ.lists {
		lists[g] = slices.Clone(occ)
		slices.SortFunc(lists[g], func(a, b entry) int {
			return cmp.Or(cmp.Compare(a.comm, b.comm), cmp.Compare(a.class, b.class))
		})
	}
	return lists
}

// requireSameOccupancy fails unless every element holds the same multiset
// of entries in both states.
func requireSameOccupancy(t *testing.T, what string, got, want [][]entry) {
	t.Helper()
	for g := range want {
		if !slices.Equal(got[g], want[g]) {
			t.Fatalf("%s: element %d holds %v, want %v", what, g, got[g], want[g])
		}
	}
}

// FuzzIncrementalMatchesReference runs fuzzer-chosen swap, revert and
// reseat sequences on a seeded random task graph and mapping, the moves
// a swap session makes, and checks every state of the incremental engine
// against the frozen reference, on both engines in turn. The seed picks
// the network, the graph, the mapping and the tiles of each move; each
// op byte picks the move (low two bits) and its size (the rest). The
// seed corpus lives in testdata/fuzz, so plain go test replays it.
func FuzzIncrementalMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{0, 4, 2, 1, 3, 0, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		nets := refNetworks(t)
		rn := nets[int(uint64(seed)%uint64(len(nets)))]
		for _, engine := range engines {
			fuzzIncremental(t, rn, engine, seed, ops)
		}
	})
}

// fuzzIncremental is one engine's run of FuzzIncrementalMatchesReference.
func fuzzIncremental(t *testing.T, rn refNet, engine string, seed int64, ops []byte) {
	nw := rn.nw
	name := rn.name + "/" + engine
	n := nw.NumTiles()
	rng := rand.New(rand.NewSource(seed))

	// A random task graph: tasks on distinct tiles, edges between
	// distinct tasks.
	tasks := 2 + rng.Intn(n-1)
	type edge struct{ src, dst int }
	edges := make([]edge, 1+rng.Intn(3*tasks))
	for i := range edges {
		s := rng.Intn(tasks)
		d := rng.Intn(tasks - 1)
		if d >= s {
			d++
		}
		edges[i] = edge{s, d}
	}
	mapping := rng.Perm(n)[:tasks]
	taskOf := make([]int, n)
	for i := range taskOf {
		taskOf[i] = -1
	}
	for task, tile := range mapping {
		taskOf[tile] = task
	}
	comms := make([]Communication, len(edges))
	for i, e := range edges {
		comms[i] = Communication{Src: topo.TileID(mapping[e.src]), Dst: topo.TileID(mapping[e.dst])}
	}
	var weights []float64
	if seed%2 != 0 {
		weights = make([]float64, len(edges))
		for i := range weights {
			weights[i] = 1 + float64(rng.Intn(9))
		}
	}

	inc := newIncrementalOn(t, nw, engine)
	defer inc.Release()
	var got Result
	var err error
	if weights != nil {
		got, err = inc.InitWeighted(comms, weights)
	} else {
		got, err = inc.Init(comms)
	}
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refEvaluate(nw, comms, weights, nil)
	requireBitIdentical(t, name+" Init", got, want)

	swapTiles := func(a, b int) {
		ta, tb := taskOf[a], taskOf[b]
		taskOf[a], taskOf[b] = tb, ta
		if ta >= 0 {
			mapping[ta] = b
		}
		if tb >= 0 {
			mapping[tb] = a
		}
	}
	var undoMapping []int
	for i, op := range ops {
		what := fmt.Sprintf("%s op %d (%d)", name, i, op)
		if op&3 == 2 {
			// Revert the last delta, if it is still undoable.
			if undoMapping == nil {
				if _, err := inc.Undo(); err == nil {
					t.Fatalf("%s: Undo succeeded with no delta to undo", what)
				}
				continue
			}
			if got, err = inc.Undo(); err != nil {
				t.Fatal(err)
			}
			copy(mapping, undoMapping)
			for tile := range taskOf {
				taskOf[tile] = -1
			}
			for task, tile := range mapping {
				taskOf[tile] = task
			}
			for ei, e := range edges {
				comms[ei] = Communication{Src: topo.TileID(mapping[e.src]), Dst: topo.TileID(mapping[e.dst])}
			}
			want, _ := refEvaluate(nw, comms, weights, nil)
			requireBitIdentical(t, what+" revert", got, want)
			undoMapping = nil
			continue
		}
		// A swap moves the contents of two tiles; a reseat makes
		// 1 + op>>2 random swaps at once, up to a fresh mapping.
		prev := append([]int(nil), mapping...)
		swaps := 1
		if op&3 == 3 {
			swaps += int(op >> 2)
		}
		for s := 0; s < swaps; s++ {
			swapTiles(rng.Intn(n), rng.Intn(n))
		}
		var changed []int
		var newComms []Communication
		for ei, e := range edges {
			if mapping[e.src] != prev[e.src] || mapping[e.dst] != prev[e.dst] {
				changed = append(changed, ei)
				newComms = append(newComms, Communication{Src: topo.TileID(mapping[e.src]), Dst: topo.TileID(mapping[e.dst])})
			}
		}
		if got, err = inc.ApplyDelta(changed, newComms); err != nil {
			t.Fatal(err)
		}
		for j, ei := range changed {
			comms[ei] = newComms[j]
		}
		want, _ := refEvaluate(nw, comms, weights, nil)
		requireBitIdentical(t, fmt.Sprintf("%s (|Δ|=%d of %d)", what, len(changed), len(edges)), got, want)
		undoMapping = prev
	}
}
