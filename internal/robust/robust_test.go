package robust

import (
	"math"
	"math/rand"
	"testing"

	"phonocmap/internal/cg"
	"phonocmap/internal/core"
	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

func fixtures(t *testing.T) (*topo.Grid, *cg.Graph, core.Mapping) {
	t.Helper()
	g, err := topo.NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	app := cg.MustApp("PIP")
	return g, app, core.IdentityMapping(app.NumTasks())
}

func TestVariationZeroToleranceIsDeterministic(t *testing.T) {
	g, app, m := fixtures(t)
	res, err := Variation(g, router.Crux(), route.XY{}, photonic.DefaultParams(), app, m, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 5 {
		t.Errorf("Samples = %d", res.Samples)
	}
	// With zero tolerance every sample is the nominal evaluation.
	if res.Loss.StdDev() != 0 || res.SNR.StdDev() != 0 {
		t.Errorf("zero tolerance produced spread: loss sd %v, snr sd %v",
			res.Loss.StdDev(), res.SNR.StdDev())
	}
	if res.WorstLossDB != res.Loss.Min() {
		t.Error("worst loss != min sample")
	}
}

func TestVariationSpreadsWithTolerance(t *testing.T) {
	g, app, m := fixtures(t)
	res, err := Variation(g, router.Crux(), route.XY{}, photonic.DefaultParams(), app, m, 30, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss.StdDev() == 0 {
		t.Error("20% tolerance produced no loss spread")
	}
	if res.SNR.StdDev() == 0 {
		t.Error("20% tolerance produced no SNR spread")
	}
	// Conservative values are at least as bad as the means.
	if res.WorstLossDB > res.Loss.Mean() {
		t.Error("worst loss better than mean")
	}
	if res.WorstSNRDB > res.SNR.Mean() {
		t.Error("worst SNR better than mean")
	}
	// Determinism under a fixed seed.
	res2, err := Variation(g, router.Crux(), route.XY{}, photonic.DefaultParams(), app, m, 30, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstLossDB != res2.WorstLossDB || res.WorstSNRDB != res2.WorstSNRDB {
		t.Error("same seed produced different robustness results")
	}
}

func TestVariationErrors(t *testing.T) {
	g, app, m := fixtures(t)
	p := photonic.DefaultParams()
	if _, err := Variation(g, router.Crux(), route.XY{}, p, app, m, 0, 0.1, 1); err == nil {
		t.Error("accepted zero samples")
	}
	if _, err := Variation(g, router.Crux(), route.XY{}, p, app, m, 5, 1.5, 1); err == nil {
		t.Error("accepted tolerance >= 1")
	}
	bad := p
	bad.CrossingLoss = 1
	if _, err := Variation(g, router.Crux(), route.XY{}, bad, app, m, 5, 0.1, 1); err == nil {
		t.Error("accepted invalid base params")
	}
}

func TestPerturbKeepsSign(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := photonic.DefaultParams()
	for i := 0; i < 100; i++ {
		p := perturb(rng, base, 0.3)
		if err := p.Validate(); err != nil {
			t.Fatalf("perturbed params invalid: %v", err)
		}
		if math.Abs(p.CrossingCrosstalk-base.CrossingCrosstalk) > 0.3*math.Abs(base.CrossingCrosstalk)+1e-12 {
			t.Fatalf("perturbation exceeded tolerance: %v", p.CrossingCrosstalk)
		}
	}
}

func TestLinkFailuresReroute(t *testing.T) {
	g, app, m := fixtures(t)
	// Crux lacks Y->X turns, so it must be rejected.
	if _, err := LinkFailures(g, router.Crux(), photonic.DefaultParams(), app, m); err == nil {
		t.Error("accepted Crux for BFS rerouting")
	}
	results, err := LinkFailures(g, router.Cygnus(), photonic.DefaultParams(), app, m)
	if err != nil {
		t.Fatal(err)
	}
	// A 3x3 mesh has 12 undirected links.
	if len(results) != 12 {
		t.Fatalf("results = %d, want 12", len(results))
	}
	// No single link cut disconnects a 3x3 mesh.
	baseline := math.Inf(-1)
	for _, r := range results {
		if r.Unreachable {
			t.Errorf("cut %v reported unreachable on a 2-connected mesh", r.Failed)
		}
		if r.WorstLossDB >= 0 {
			t.Errorf("cut %v: loss %v not negative", r.Failed, r.WorstLossDB)
		}
		if r.WorstLossDB > baseline {
			baseline = r.WorstLossDB
		}
	}
	// Compare against the undegraded BFS network: some cut must make the
	// worst loss strictly worse (detours are longer).
	nw, err := network.New(g, router.Cygnus(), route.BFS{}, photonic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.NewProblem(app, nw, core.MaximizeSNR)
	if err != nil {
		t.Fatal(err)
	}
	intact, err := prob.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	worstCut := 0.0
	for _, r := range results {
		if r.WorstLossDB < worstCut {
			worstCut = r.WorstLossDB
		}
	}
	if worstCut >= intact.WorstLossDB {
		t.Errorf("no cut degraded the worst loss: cut %v vs intact %v", worstCut, intact.WorstLossDB)
	}
}

// TestLinkFailuresUnreachableMeansMapped: with link 0-1 already failed on
// a 3x3 mesh, cutting 0-3 isolates tile 0. The cut is unreachable for a
// mapping that puts a task on tile 0, and an ordinary cut for one that
// leaves tile 0 empty.
func TestLinkFailuresUnreachableMeansMapped(t *testing.T) {
	g, app, identity := fixtures(t)
	base, err := topo.Degrade(g, [][2]topo.TileID{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	avoiding := make(core.Mapping, app.NumTasks())
	for i := range avoiding {
		avoiding[i] = topo.TileID(i + 1)
	}
	cut := [2]topo.TileID{0, 3}
	for _, tc := range []struct {
		name        string
		m           core.Mapping
		unreachable bool
	}{
		{"task on tile 0", identity, true},
		{"tile 0 empty", avoiding, false},
	} {
		results, err := LinkFailures(base, router.Cygnus(), photonic.DefaultParams(), app, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 11 {
			t.Fatalf("%s: %d cuts, want 11", tc.name, len(results))
		}
		for _, r := range results {
			if r.Failed != cut {
				if r.Unreachable {
					t.Errorf("%s: cut %v unreachable", tc.name, r.Failed)
				}
				continue
			}
			if r.Unreachable != tc.unreachable {
				t.Errorf("%s: cut %v unreachable = %v, want %v", tc.name, cut, r.Unreachable, tc.unreachable)
			}
			if !tc.unreachable && !(r.WorstLossDB < 0) {
				t.Errorf("%s: cut %v has loss %v, want a negative figure", tc.name, cut, r.WorstLossDB)
			}
		}
	}
}

// TestAnalysesRejectBadMappings: both analyses read the mapped pairs from
// the mapping before any evaluation validates it, so every malformed
// mapping must come back as an error, never a panic.
func TestAnalysesRejectBadMappings(t *testing.T) {
	g, app, m := fixtures(t)
	n := app.NumTasks()
	with := func(i int, tile topo.TileID) core.Mapping {
		bad := m.Clone()
		bad[i] = tile
		return bad
	}
	cases := []struct {
		name string
		m    core.Mapping
	}{
		{"nil", nil},
		{"length n-1", m[:n-1]},
		{"length n+1", append(m.Clone(), topo.TileID(n))},
		{"tile -1", with(0, -1)},
		{"tile = NumTiles", with(n-1, topo.TileID(g.NumTiles()))},
		{"duplicate tile", with(1, m[0])},
	}
	p := photonic.DefaultParams()
	for _, tc := range cases {
		if _, err := Variation(g, router.Crux(), route.XY{}, p, app, tc.m, 2, 0.1, 1); err == nil {
			t.Errorf("Variation accepted mapping %s: %v", tc.name, tc.m)
		}
		if _, err := LinkFailures(g, router.Cygnus(), p, app, tc.m); err == nil {
			t.Errorf("LinkFailures accepted mapping %s: %v", tc.name, tc.m)
		}
	}
}
