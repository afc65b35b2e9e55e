package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phonocmap/internal/cg"
	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

func testNet(t *testing.T, w, h int) *network.Network {
	t.Helper()
	g, err := topo.NewMesh(w, h)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := network.New(g, router.Crux(), route.XY{}, photonic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func pipProblem(t *testing.T, obj Objective) *Problem {
	t.Helper()
	p, err := NewProblem(cg.MustApp("PIP"), testNet(t, 3, 3), obj)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMappingValidate(t *testing.T) {
	m := Mapping{0, 3, 5}
	if err := m.Validate(9); err != nil {
		t.Errorf("valid mapping rejected: %v", err)
	}
	cases := []struct {
		name string
		m    Mapping
		n    int
	}{
		{"empty", Mapping{}, 9},
		{"too many tasks", Mapping{0, 1, 2}, 2},
		{"negative tile", Mapping{0, -1}, 9},
		{"tile out of range", Mapping{0, 9}, 9},
		{"duplicate tile", Mapping{3, 3}, 9},
	}
	for _, c := range cases {
		if err := c.m.Validate(c.n); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestMappingCloneEqualSwap(t *testing.T) {
	m := Mapping{2, 5, 7}
	c := m.Clone()
	if !m.Equal(c) {
		t.Error("clone not equal")
	}
	c.Swap(0, 2)
	if m.Equal(c) {
		t.Error("swap leaked into original")
	}
	if c[0] != 7 || c[2] != 2 {
		t.Errorf("swap wrong: %v", c)
	}
	if m.Equal(Mapping{2, 5}) {
		t.Error("Equal ignored length")
	}
}

func TestRandomMappingProperty(t *testing.T) {
	f := func(seed int64, tasksRaw, extraRaw uint8) bool {
		tasks := 1 + int(tasksRaw%20)
		tiles := tasks + int(extraRaw%10)
		rng := rand.New(rand.NewSource(seed))
		m, err := RandomMapping(rng, tasks, tiles)
		if err != nil {
			return false
		}
		return len(m) == tasks && m.Validate(tiles) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomMapping(rng, 5, 4); err == nil {
		t.Error("accepted tasks > tiles")
	}
	if _, err := RandomMapping(rng, 0, 4); err == nil {
		t.Error("accepted zero tasks")
	}
}

func TestIdentityAndFreeTiles(t *testing.T) {
	m := IdentityMapping(4)
	if err := m.Validate(9); err != nil {
		t.Fatal(err)
	}
	free := m.FreeTiles(nil, 6)
	want := []topo.TileID{4, 5}
	if len(free) != len(want) {
		t.Fatalf("free = %v, want %v", free, want)
	}
	for i := range want {
		if free[i] != want[i] {
			t.Fatalf("free = %v, want %v", free, want)
		}
	}
	m.MoveTo(0, 5)
	if m[0] != 5 {
		t.Error("MoveTo failed")
	}
}

func TestParseObjective(t *testing.T) {
	if o, err := ParseObjective("loss"); err != nil || o != MinimizeLoss {
		t.Errorf("loss: %v %v", o, err)
	}
	if o, err := ParseObjective("snr"); err != nil || o != MaximizeSNR {
		t.Errorf("snr: %v %v", o, err)
	}
	if _, err := ParseObjective("latency"); err == nil {
		t.Error("accepted unknown objective")
	}
	if MinimizeLoss.String() != "loss" || MaximizeSNR.String() != "snr" {
		t.Error("Objective.String mismatch")
	}
}

func TestNewProblemValidation(t *testing.T) {
	nw := testNet(t, 3, 3)
	// DVOPD (32 tasks) cannot fit a 3x3: Eq. 2.
	if _, err := NewProblem(cg.MustApp("DVOPD"), nw, MaximizeSNR); err == nil {
		t.Error("accepted app larger than topology")
	}
	// Graph with no edges.
	lonely := cg.New("lonely")
	lonely.MustAddTask("a")
	if _, err := NewProblem(lonely, nw, MaximizeSNR); err == nil {
		t.Error("accepted edgeless app")
	}
	if _, err := NewProblem(cg.MustApp("PIP"), nw, Objective(9)); err == nil {
		t.Error("accepted invalid objective")
	}
}

func TestEvaluateObjectives(t *testing.T) {
	lossProb := pipProblem(t, MinimizeLoss)
	snrProb := pipProblem(t, MaximizeSNR)
	m := IdentityMapping(8)

	ls, err := lossProb.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Cost != -ls.WorstLossDB {
		t.Errorf("loss cost %v != -WorstLossDB %v", ls.Cost, -ls.WorstLossDB)
	}
	if ls.WorstLossDB >= 0 {
		t.Errorf("WorstLossDB = %v, want negative", ls.WorstLossDB)
	}

	ss, err := snrProb.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Cost != -ss.WorstSNRDB {
		t.Errorf("snr cost %v != -WorstSNRDB %v", ss.Cost, -ss.WorstSNRDB)
	}
	// Same mapping, same physics: the raw metrics agree across objectives.
	if ls.WorstLossDB != ss.WorstLossDB || ls.WorstSNRDB != ss.WorstSNRDB {
		t.Error("raw metrics differ between objectives")
	}
}

func TestEvaluateRejectsBadMappings(t *testing.T) {
	p := pipProblem(t, MaximizeSNR)
	if _, err := p.Evaluate(Mapping{0, 1, 2}); err == nil {
		t.Error("accepted short mapping")
	}
	bad := IdentityMapping(8)
	bad[3] = bad[4]
	if _, err := p.Evaluate(bad); err == nil {
		t.Error("accepted non-injective mapping")
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	p := pipProblem(t, MaximizeSNR)
	m, _ := RandomMapping(rand.New(rand.NewSource(3)), 8, 9)
	s1, err := p.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("re-evaluation differs: %+v vs %+v", s1, s2)
	}
	s3, err := p.Clone().Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s3 {
		t.Errorf("clone evaluation differs: %+v vs %+v", s1, s3)
	}
}

func TestDetails(t *testing.T) {
	p := pipProblem(t, MaximizeSNR)
	m := IdentityMapping(8)
	res, details, err := p.Details(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(details) != p.App().NumEdges() {
		t.Fatalf("details = %d entries, want %d", len(details), p.App().NumEdges())
	}
	worst := math.Inf(1)
	for _, d := range details {
		if d.SNRDB < worst {
			worst = d.SNRDB
		}
	}
	if math.Abs(worst-res.WorstSNRDB) > 1e-12 {
		t.Errorf("min detail SNR %v != result %v", worst, res.WorstSNRDB)
	}
	if _, _, err := p.Details(Mapping{0}); err == nil {
		t.Error("Details accepted short mapping")
	}
}

func TestScoreBetter(t *testing.T) {
	a := Score{Cost: 1}
	b := Score{Cost: 2}
	if !a.Better(b) || b.Better(a) || a.Better(a) {
		t.Error("Better ordering wrong")
	}
	if !a.Better(InfCost()) {
		t.Error("InfCost not worse than a real score")
	}
}

func TestContextBudgetEnforced(t *testing.T) {
	p := pipProblem(t, MaximizeSNR)
	rng := rand.New(rand.NewSource(5))
	ctx, err := NewContext(p, rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := ctx.Evaluate(ctx.RandomMapping()); err != nil || !ok {
			t.Fatalf("eval %d: ok=%v err=%v", i, ok, err)
		}
	}
	if !ctx.Exhausted() || ctx.Remaining() != 0 || ctx.Evals() != 3 {
		t.Errorf("budget accounting wrong: evals=%d remaining=%d", ctx.Evals(), ctx.Remaining())
	}
	if _, ok, err := ctx.Evaluate(ctx.RandomMapping()); ok || err != nil {
		t.Errorf("evaluation beyond budget: ok=%v err=%v", ok, err)
	}
}

func TestContextTracksBest(t *testing.T) {
	p := pipProblem(t, MaximizeSNR)
	ctx, err := NewContext(p, rand.New(rand.NewSource(7)), 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ctx.Best(); ok {
		t.Error("Best before any evaluation")
	}
	improvements := 0
	ctx.OnImprove = func(int, Score) { improvements++ }
	bestSeen := InfCost()
	for i := 0; i < 50; i++ {
		s, ok, err := ctx.Evaluate(ctx.RandomMapping())
		if err != nil || !ok {
			t.Fatal(err)
		}
		if s.Better(bestSeen) {
			bestSeen = s
		}
	}
	m, s, ok := ctx.Best()
	if !ok {
		t.Fatal("no best after 50 evals")
	}
	if s.Cost != bestSeen.Cost {
		t.Errorf("incumbent %v != observed best %v", s.Cost, bestSeen.Cost)
	}
	if err := m.Validate(p.NumTiles()); err != nil {
		t.Errorf("incumbent invalid: %v", err)
	}
	if improvements < 1 {
		t.Error("OnImprove never fired")
	}
	// The returned mapping is a defensive copy.
	m[0] = m[1]
	m2, _, _ := ctx.Best()
	if err := m2.Validate(p.NumTiles()); err != nil {
		t.Error("mutating returned best corrupted the incumbent")
	}
}

func TestNewContextValidation(t *testing.T) {
	p := pipProblem(t, MaximizeSNR)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewContext(nil, rng, 10); err == nil {
		t.Error("accepted nil problem")
	}
	if _, err := NewContext(p, nil, 10); err == nil {
		t.Error("accepted nil rng")
	}
	if _, err := NewContext(p, rng, 0); err == nil {
		t.Error("accepted zero budget")
	}
}

// trivialSearcher evaluates n random mappings.
type trivialSearcher struct{ n int }

func (t trivialSearcher) Name() string { return "trivial" }
func (t trivialSearcher) Search(ctx *Context) error {
	for i := 0; i < t.n; i++ {
		if _, ok, err := ctx.Evaluate(ctx.RandomMapping()); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	return nil
}

func TestExplorationRun(t *testing.T) {
	p := pipProblem(t, MaximizeSNR)
	ex, err := NewExploration(p, Options{Budget: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(trivialSearcher{n: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 20 {
		t.Errorf("Evals = %d, want 20 (budget-capped)", res.Evals)
	}
	if res.Algorithm != "trivial" || res.Objective != MaximizeSNR {
		t.Errorf("metadata wrong: %+v", res)
	}
	if err := res.Mapping.Validate(p.NumTiles()); err != nil {
		t.Errorf("result mapping invalid: %v", err)
	}
}

func TestExplorationReproducible(t *testing.T) {
	run := func() RunResult {
		p := pipProblem(t, MinimizeLoss)
		ex, err := NewExploration(p, Options{Budget: 30, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.Run(trivialSearcher{n: 30})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Score != r2.Score || !r1.Mapping.Equal(r2.Mapping) {
		t.Error("same seed produced different results")
	}
}

func TestExplorationValidation(t *testing.T) {
	p := pipProblem(t, MaximizeSNR)
	if _, err := NewExploration(nil, Options{Budget: 1}); err == nil {
		t.Error("accepted nil problem")
	}
	if _, err := NewExploration(p, Options{Budget: 0}); err == nil {
		t.Error("accepted zero budget")
	}
}

func TestRunAll(t *testing.T) {
	p := pipProblem(t, MaximizeSNR)
	ex, err := NewExploration(p, Options{Budget: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := ex.RunAll([]Searcher{trivialSearcher{n: 10}, trivialSearcher{n: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	// Different derived seeds: the two runs should generally differ.
	if results[0].Seed == results[1].Seed {
		t.Error("runs share a seed")
	}
}

func TestWeightedLossObjective(t *testing.T) {
	p, err := NewProblem(cg.MustApp("VOPD"), testNet(t, 4, 4), MinimizeWeightedLoss)
	if err != nil {
		t.Fatal(err)
	}
	m := IdentityMapping(16)
	s, err := p.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if s.AvgLossDB >= 0 || s.AvgLossDB < s.WorstLossDB {
		t.Errorf("AvgLossDB = %v, worst %v: mean must lie in (worst, 0)", s.AvgLossDB, s.WorstLossDB)
	}
	if s.Cost != -s.AvgLossDB {
		t.Errorf("Cost = %v, want %v", s.Cost, -s.AvgLossDB)
	}
	if MinimizeWeightedLoss.String() != "wloss" {
		t.Error("String mismatch")
	}
	if o, err := ParseObjective("wloss"); err != nil || o != MinimizeWeightedLoss {
		t.Errorf("ParseObjective(wloss) = %v, %v", o, err)
	}
}

func TestWeightedObjectiveRejectsZeroBandwidth(t *testing.T) {
	g := cg.New("zero")
	a := g.MustAddTask("a")
	b := g.MustAddTask("b")
	g.MustAddEdge(a, b, 0)
	if _, err := NewProblem(g, testNet(t, 3, 3), MinimizeWeightedLoss); err == nil {
		t.Error("accepted zero-bandwidth app for weighted objective")
	}
	// The same app is fine for the worst-case objectives.
	if _, err := NewProblem(g, testNet(t, 3, 3), MinimizeLoss); err != nil {
		t.Errorf("worst-case objective rejected zero-bandwidth app: %v", err)
	}
}

func TestWeightedObjectiveFavoursHeavyFlows(t *testing.T) {
	// Two flows from one source: one heavy, one light. The weighted
	// objective must prefer placing the heavy flow's destination closer.
	g := cg.New("skew")
	src := g.MustAddTask("src")
	heavy := g.MustAddTask("heavy")
	light := g.MustAddTask("light")
	g.MustAddEdge(src, heavy, 1000)
	g.MustAddEdge(src, light, 1)
	p, err := NewProblem(g, testNet(t, 3, 3), MinimizeWeightedLoss)
	if err != nil {
		t.Fatal(err)
	}
	// heavy adjacent, light far.
	good := Mapping{0, 1, 8}
	// heavy far, light adjacent.
	bad := Mapping{0, 8, 1}
	gs, err := p.Evaluate(good)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := p.Evaluate(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !gs.Better(bs) {
		t.Errorf("heavy-flow-near mapping (cost %v) not better than far (cost %v)", gs.Cost, bs.Cost)
	}
}
