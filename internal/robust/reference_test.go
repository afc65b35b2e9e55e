package robust

import (
	"fmt"
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

// referenceVariation is a frozen copy of Variation as it stood when every
// sample built the full network with network.New, routing and expanding
// all n·(n−1) tile pairs to score the mapped ones. Variation must
// reproduce its reports bit for bit.
func referenceVariation(
	t topo.Topology,
	arch *router.Architecture,
	algo route.Algorithm,
	base photonic.Params,
	app *cg.Graph,
	m core.Mapping,
	samples int,
	tolerance float64,
	seed int64,
) (VariationResult, error) {
	if samples < 1 {
		return VariationResult{}, fmt.Errorf("robust: need at least 1 sample, got %d", samples)
	}
	if tolerance < 0 || tolerance >= 1 {
		return VariationResult{}, fmt.Errorf("robust: tolerance %v out of [0, 1)", tolerance)
	}
	if err := base.Validate(); err != nil {
		return VariationResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	res := VariationResult{
		Samples:     samples,
		WorstLossDB: 0,
		WorstSNRDB:  math.Inf(1),
	}
	for i := 0; i < samples; i++ {
		p := perturb(rng, base, tolerance)
		nw, err := network.New(t, arch, algo, p)
		if err != nil {
			return VariationResult{}, fmt.Errorf("robust: sample %d: %w", i, err)
		}
		prob, err := core.NewProblem(app, nw, core.MaximizeSNR)
		if err != nil {
			return VariationResult{}, err
		}
		s, err := prob.Evaluate(m)
		if err != nil {
			return VariationResult{}, err
		}
		res.Loss.Add(s.WorstLossDB)
		res.SNR.Add(s.WorstSNRDB)
		if s.WorstLossDB < res.WorstLossDB {
			res.WorstLossDB = s.WorstLossDB
		}
		if s.WorstSNRDB < res.WorstSNRDB {
			res.WorstSNRDB = s.WorstSNRDB
		}
	}
	return res, nil
}

// referenceLinkFailures is a frozen copy of LinkFailures as it stood when
// every cut built the full network with network.New, so a cut counted as
// unreachable when it disconnected any tile pair, mapped or not.
// LinkFailures must reproduce its reports bit for bit wherever every cut
// leaves the topology connected.
func referenceLinkFailures(
	t topo.Topology,
	arch *router.Architecture,
	base photonic.Params,
	app *cg.Graph,
	m core.Mapping,
) ([]FailureResult, error) {
	if err := router.CheckTurns(arch, router.RequiredTurnsAll()); err != nil {
		return nil, fmt.Errorf("robust: link-failure analysis needs an all-turn router: %w", err)
	}
	seen := make(map[[2]topo.TileID]bool)
	var results []FailureResult
	for _, l := range t.Links() {
		key := [2]topo.TileID{l.From, l.To}
		if l.To < l.From {
			key = [2]topo.TileID{l.To, l.From}
		}
		if seen[key] {
			continue
		}
		seen[key] = true

		fr := FailureResult{Failed: key}
		deg, err := topo.Degrade(t, [][2]topo.TileID{{key[0], key[1]}, {key[1], key[0]}})
		if err != nil {
			// The cut isolates a tile: every mapping is unreachable.
			fr.Unreachable = true
			results = append(results, fr)
			continue
		}
		nw, err := network.New(deg, arch, route.BFS{}, base)
		if err != nil {
			fr.Unreachable = true
			results = append(results, fr)
			continue
		}
		prob, err := core.NewProblem(app, nw, core.MaximizeSNR)
		if err != nil {
			return nil, err
		}
		s, err := prob.Evaluate(m)
		if err != nil {
			return nil, err
		}
		fr.WorstLossDB = s.WorstLossDB
		fr.WorstSNRDB = s.WorstSNRDB
		results = append(results, fr)
	}
	return results, nil
}

// sameReport compares two reports by their %+v text: it prints every
// float as the shortest decimal that reads back to the same bits, so
// equal text means bit-identical values.
func sameReport(got, want any) bool { return fmt.Sprintf("%+v", got) == fmt.Sprintf("%+v", want) }

// referenceCase is one (app, topology) instance of the reference table.
type referenceCase struct {
	app      *cg.Graph
	top      topo.Topology
	mappings []core.Mapping
}

// referenceCases pairs PIP (3x3), MWD and VOPD (4x4) with a mesh, a
// torus and, for the link-failure study, one degraded base of each:
// bases where every further single cut leaves the topology connected, so
// a cut is unreachable for every mapping or for none. Each case carries
// the identity mapping and two seeded random ones.
func referenceCases(t *testing.T, degraded bool) []referenceCase {
	t.Helper()
	var cases []referenceCase
	for _, name := range []string{"PIP", "MWD", "VOPD"} {
		app := cg.MustApp(name)
		side := 3
		if app.NumTasks() > 9 {
			side = 4
		}
		mesh, err := topo.NewMesh(side, side)
		if err != nil {
			t.Fatal(err)
		}
		torus, err := topo.NewTorus(side, side)
		if err != nil {
			t.Fatal(err)
		}
		tops := []topo.Topology{mesh, torus}
		if degraded {
			// Link 1-4 (3x3) and link 5-6 (4x4) are interior: without
			// them every link still lies on a cycle.
			cut := [2]topo.TileID{1, 4}
			if side == 4 {
				cut = [2]topo.TileID{5, 6}
			}
			for _, base := range []topo.Topology{mesh, torus} {
				d, err := topo.Degrade(base, [][2]topo.TileID{cut, {cut[1], cut[0]}})
				if err != nil {
					t.Fatal(err)
				}
				tops = append(tops, d)
			}
		}
		rng := rand.New(rand.NewSource(int64(side)))
		for _, top := range tops {
			c := referenceCase{app: app, top: top, mappings: []core.Mapping{core.IdentityMapping(app.NumTasks())}}
			for i := 0; i < 2; i++ {
				m, err := core.RandomMapping(rng, app.NumTasks(), top.NumTiles())
				if err != nil {
					t.Fatal(err)
				}
				c.mappings = append(c.mappings, m)
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// TestVariationMatchesReference: over every router and routing pairing
// the full build accepts, every mapping and two draw seeds, Variation's
// report equals the frozen reference's bit for bit.
func TestVariationMatchesReference(t *testing.T) {
	params := photonic.DefaultParams()
	for _, c := range referenceCases(t, false) {
		for _, rname := range router.Names() {
			arch, err := router.ByName(rname)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range []route.Algorithm{route.XY{}, route.YX{}, route.BFS{}} {
				if _, err := network.New(c.top, arch, algo, params); err != nil {
					continue
				}
				for mi, m := range c.mappings {
					for _, seed := range []int64{1, 9} {
						want, wantErr := referenceVariation(c.top, arch, algo, params, c.app, m, 3, 0.2, seed)
						got, err := Variation(c.top, arch, algo, params, c.app, m, 3, 0.2, seed)
						if wantErr != nil || err != nil {
							t.Fatalf("%s on %s, %s/%s, mapping %d: error %v, reference %v", c.app.Name(), c.top.Name(), rname, algo.Name(), mi, err, wantErr)
						}
						if !sameReport(got, want) {
							t.Errorf("%s on %s, %s/%s, mapping %d, seed %d:\n got %+v\nwant %+v", c.app.Name(), c.top.Name(), rname, algo.Name(), mi, seed, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLinkFailuresMatchesReference: on meshes, tori and degraded bases
// where no cut disconnects the topology, LinkFailures reports what the
// frozen reference reports, bit for bit, for every router (crux is
// rejected by both, with the same error) and every mapping.
func TestLinkFailuresMatchesReference(t *testing.T) {
	params := photonic.DefaultParams()
	for _, c := range referenceCases(t, true) {
		for _, rname := range router.Names() {
			arch, err := router.ByName(rname)
			if err != nil {
				t.Fatal(err)
			}
			for mi, m := range c.mappings {
				want, wantErr := referenceLinkFailures(c.top, arch, params, c.app, m)
				got, err := LinkFailures(c.top, arch, params, c.app, m)
				if wantErr != nil {
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%s on %s, %s: error %v, want %v", c.app.Name(), c.top.Name(), rname, err, wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s on %s, %s: %v (the reference ran)", c.app.Name(), c.top.Name(), rname, err)
				}
				for _, fr := range want {
					if fr.Unreachable {
						t.Fatalf("%s: the reference finds cut %v unreachable; the table needs connected cuts", c.top.Name(), fr.Failed)
					}
				}
				if !sameReport(got, want) {
					t.Errorf("%s on %s, %s, mapping %d:\n got %+v\nwant %+v", c.app.Name(), c.top.Name(), rname, mi, got, want)
				}
			}
		}
	}
}
