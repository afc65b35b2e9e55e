package core

import (
	"math/rand"
	"testing"

	"phonocmap/internal/cg"
	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

func swapTestNet(t *testing.T, torus bool, w, h int) *network.Network {
	t.Helper()
	var g *topo.Grid
	var err error
	if torus {
		g, err = topo.NewTorus(w, h)
	} else {
		g, err = topo.NewMesh(w, h)
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

// TestSwapSessionMatchesFullEvaluation is the core-level differential
// proof: ≥1000 random swaps per objective, on mesh and torus, with a
// spare-tile mapping (so relocations onto free tiles are exercised too),
// asserting the incremental Score equals the full-evaluation Score to the
// last bit at every step — through commits, reverts and reseats.
func TestSwapSessionMatchesFullEvaluation(t *testing.T) {
	rngApp := rand.New(rand.NewSource(7))
	app, err := cg.RandomConnected(rngApp, 12, 40) // dense: 40 edges on 12 tasks
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []Objective{MinimizeLoss, MaximizeSNR, MinimizeWeightedLoss} {
		for _, torus := range []bool{false, true} {
			name := obj.String() + "-mesh"
			if torus {
				name = obj.String() + "-torus"
			}
			t.Run(name, func(t *testing.T) {
				nw := swapTestNet(t, torus, 4, 4) // 16 tiles, 12 tasks: 4 spare
				prob, err := NewProblem(app, nw, obj)
				if err != nil {
					t.Fatal(err)
				}
				ref := prob.Clone()
				rng := rand.New(rand.NewSource(99))
				m, err := RandomMapping(rng, app.NumTasks(), nw.NumTiles())
				if err != nil {
					t.Fatal(err)
				}

				sess, err := prob.NewSwapSession(m)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Evaluate(m)
				if err != nil {
					t.Fatal(err)
				}
				if sess.Score() != want {
					t.Fatalf("init: session %+v != full %+v", sess.Score(), want)
				}

				cur := m.Clone()
				numTiles := nw.NumTiles()
				for step := 0; step < 1100; step++ {
					if step%97 == 96 {
						// Occasionally reseat on a fresh random mapping,
						// which re-initialises the session's engine.
						fresh, err := RandomMapping(rng, app.NumTasks(), numTiles)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sess.Reseat(fresh)
						if err != nil {
							t.Fatal(err)
						}
						want, err := ref.Evaluate(fresh)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("step %d reseat: incremental %+v != full %+v", step, got, want)
						}
						cur = fresh.Clone()
						continue
					}

					a := topo.TileID(rng.Intn(numTiles))
					b := topo.TileID(rng.Intn(numTiles))
					got, err := sess.EvaluateSwap(a, b)
					if err != nil {
						t.Fatal(err)
					}
					swapped := cur.Clone()
					ta, tb := -1, -1
					for task, tile := range swapped {
						if tile == a {
							ta = task
						}
						if tile == b {
							tb = task
						}
					}
					if ta >= 0 {
						swapped[ta] = b
					}
					if tb >= 0 {
						swapped[tb] = a
					}
					want, err := ref.Evaluate(swapped)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("step %d swap(%d,%d): incremental %+v != full %+v", step, a, b, got, want)
					}
					if rng.Intn(2) == 0 {
						sess.Commit()
						cur = swapped
					} else {
						if err := sess.Revert(); err != nil {
							t.Fatal(err)
						}
						// After revert, the session must still score the
						// pre-swap mapping.
						want, err := ref.Evaluate(cur)
						if err != nil {
							t.Fatal(err)
						}
						if sess.Score() != want {
							t.Fatalf("step %d revert: session %+v != full %+v", step, sess.Score(), want)
						}
					}
				}
			})
		}
	}
}

func TestSwapSessionProtocolErrors(t *testing.T) {
	prob := pipProblem(t, MaximizeSNR)
	rng := rand.New(rand.NewSource(1))
	m, err := RandomMapping(rng, prob.NumTasks(), prob.NumTiles())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prob.NewSwapSession(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Revert(); err == nil {
		t.Error("Revert without a tentative swap should fail")
	}
	if _, err := sess.EvaluateSwap(-1, 0); err == nil {
		t.Error("out-of-range tile should fail")
	}
	if _, err := sess.EvaluateSwap(0, 1); err != nil {
		t.Fatal(err)
	}
	if !sess.Pending() {
		t.Error("Pending should be true after EvaluateSwap")
	}
	if _, err := sess.EvaluateSwap(1, 2); err == nil {
		t.Error("second EvaluateSwap with a pending move should fail")
	}
	if _, err := sess.Reseat(m); err == nil {
		t.Error("Reseat with a pending move should fail")
	}
	sess.Commit()
	if sess.Pending() {
		t.Error("Pending should be false after Commit")
	}

	// A rejected Reseat leaves the mapping, the score and the engine
	// where they were.
	before := sess.Mapping().Clone()
	score := sess.Score()
	dup := before.Clone()
	dup[1] = dup[0]
	outside := before.Clone()
	outside[0] = 9 // PIP's mesh has 9 tiles
	for _, bad := range []Mapping{dup, outside, before[:2]} {
		if _, err := sess.Reseat(bad); err == nil {
			t.Errorf("Reseat(%v) accepted", bad)
		}
		if !sess.Mapping().Equal(before) || sess.Score() != score {
			t.Fatalf("rejected Reseat(%v) moved the session to %v / %+v", bad, sess.Mapping(), sess.Score())
		}
	}
	swapped := before.Clone()
	for task, tile := range swapped {
		switch tile {
		case 0:
			swapped[task] = 1
		case 1:
			swapped[task] = 0
		}
	}
	want, err := prob.Clone().Evaluate(swapped)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sess.EvaluateSwap(0, 1); err != nil || got != want || !sess.Mapping().Equal(swapped) {
		t.Errorf("swap after a rejected Reseat: %+v on %v (err %v), want %+v on %v", got, sess.Mapping(), err, want, swapped)
	}
	sess.Commit()

	if _, err := prob.NewSwapSession(Mapping{0, 0, 1}); err == nil {
		t.Error("invalid mapping should fail")
	}
	if _, err := prob.NewSwapSession(m[:2]); err == nil {
		t.Error("short mapping should fail")
	}
}

// TestContextSwapLedger: the Context-level incremental path spends
// budget, fires callbacks and tracks the incumbent exactly like Evaluate.
func TestContextSwapLedger(t *testing.T) {
	prob := pipProblem(t, MaximizeSNR)
	rng := rand.New(rand.NewSource(3))
	ctx, err := NewContext(prob, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	var evals, improves int
	ctx.OnEvaluate = func(Mapping, Score) { evals++ }
	ctx.OnImprove = func(int, Score) { improves++ }

	m, err := RandomMapping(rng, prob.NumTasks(), prob.NumTiles())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctx.EvaluateSwap(0, 1); err == nil {
		t.Error("EvaluateSwap before StartSwaps should fail")
	}
	s0, ok, err := ctx.StartSwaps(m)
	if err != nil || !ok {
		t.Fatalf("StartSwaps: %v ok=%v", err, ok)
	}
	if ctx.Evals() != 1 || evals != 1 || improves != 1 {
		t.Fatalf("after StartSwaps: evals=%d cb=%d improves=%d", ctx.Evals(), evals, improves)
	}
	if best, bs, _ := ctx.Best(); !best.Equal(m) || bs != s0 {
		t.Fatalf("incumbent %v/%+v, want %v/%+v", best, bs, m, s0)
	}

	// ApplySwap costs no budget.
	if err := ctx.ApplySwap(0, 1); err != nil {
		t.Fatal(err)
	}
	if ctx.Evals() != 1 {
		t.Fatalf("ApplySwap spent budget: evals=%d", ctx.Evals())
	}

	// Exhaust the budget through swap evaluations; ok must flip to false
	// exactly when Evaluate would refuse.
	spent := ctx.Evals()
	for i := 0; ; i++ {
		a := topo.TileID(rng.Intn(prob.NumTiles()))
		b := topo.TileID(rng.Intn(prob.NumTiles()))
		_, ok, err := ctx.EvaluateSwap(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		ctx.CommitSwap()
		spent++
	}
	if spent != ctx.Budget() || ctx.Evals() != ctx.Budget() {
		t.Fatalf("spent %d, ledger %d, budget %d", spent, ctx.Evals(), ctx.Budget())
	}

	// The incumbent must be the best mapping seen, verified by full
	// evaluation on a fresh problem.
	best, bs, ok := ctx.Best()
	if !ok {
		t.Fatal("no incumbent")
	}
	check, err := prob.Clone().Evaluate(best)
	if err != nil {
		t.Fatal(err)
	}
	if check != bs {
		t.Fatalf("incumbent score %+v does not reproduce (%+v)", bs, check)
	}
}
