package network

import (
	"fmt"
	"math/rand"
	"testing"

	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

// checkPairBuild builds the requested pairs with NewForPairs and requires
// what New gives those pairs: each path bit for bit, or, when a requested
// pair fails, New's error text for the first such pair in src-major
// order. Every pair left out has no path. A pair's expected path or error
// comes from referenceExpand, which New matches pair for pair; when the
// full build succeeds, the paths are also compared with New's directly.
func checkPairBuild(t *testing.T, top topo.Topology, arch *router.Architecture, algo route.Algorithm, p photonic.Params, pairs [][2]topo.TileID) {
	t.Helper()
	n := top.NumTiles()
	requested := make([]bool, n*n)
	for _, pr := range pairs {
		requested[int(pr[0])*n+int(pr[1])] = true
	}
	ref := &Network{top: top, arch: arch, algo: algo, params: p}
	want := make([]*Path, n*n)
	var wantErr error
	for src := topo.TileID(0); int(src) < n && wantErr == nil; src++ {
		for dst := topo.TileID(0); int(dst) < n; dst++ {
			if src == dst || !requested[int(src)*n+int(dst)] {
				continue
			}
			if want[int(src)*n+int(dst)], wantErr = referenceExpand(ref, src, dst); wantErr != nil {
				break
			}
		}
	}
	got, err := NewForPairs(top, arch, algo, p, pairs)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("NewForPairs error %v, want %v", err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("NewForPairs: %v (every requested pair routes)", err)
	}
	full, fullErr := New(top, arch, algo, p)
	for src := topo.TileID(0); int(src) < n; src++ {
		for dst := topo.TileID(0); int(dst) < n; dst++ {
			g := got.Path(src, dst)
			switch {
			case src == dst:
				if g == nil || len(g.Steps) != 0 {
					t.Fatalf("%d->%d: diagonal path %v, want an empty one", src, dst, g)
				}
			case !requested[int(src)*n+int(dst)]:
				if g != nil {
					t.Fatalf("%d->%d: not requested, yet built", src, dst)
				}
			case g == nil:
				t.Fatalf("%d->%d: requested, yet absent", src, dst)
			default:
				if d := diffPath(g, want[int(src)*n+int(dst)]); d != "" {
					t.Fatal(d)
				}
				if fullErr == nil {
					if d := diffPath(g, full.Path(src, dst)); d != "" {
						t.Fatalf("against New: %s", d)
					}
				}
			}
		}
	}
}

// randomPairs draws k ordered pairs of tiles below n, diagonal and
// repeated pairs included.
func randomPairs(rng *rand.Rand, n, k int) [][2]topo.TileID {
	pairs := make([][2]topo.TileID, k)
	for i := range pairs {
		pairs[i] = [2]topo.TileID{topo.TileID(rng.Intn(n)), topo.TileID(rng.Intn(n))}
	}
	return pairs
}

// TestNewForPairsMatchesNew pins the restricted build to New over the
// reference table: every topology, router and routing pairing, Table I
// and perturbed parameters, each with a few seeded random pair subsets
// (about n pairs, like a mapped application's communications) and the
// empty set.
func TestNewForPairsMatchesNew(t *testing.T) {
	for _, top := range referenceTopologies(t) {
		for _, name := range router.Names() {
			arch, err := router.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range referenceRoutings {
				for _, seed := range []int64{0, 7} {
					t.Run(fmt.Sprintf("%s/%s/%s/params-%d", top.Name(), name, algo.Name(), seed), func(t *testing.T) {
						rng := rand.New(rand.NewSource(seed + 1))
						n := top.NumTiles()
						checkPairBuild(t, top, arch, algo, perturbedParams(seed), nil)
						for i := 0; i < 3; i++ {
							checkPairBuild(t, top, arch, algo, perturbedParams(seed), randomPairs(rng, n, n))
						}
					})
				}
			}
		}
	}
}

// TestNewForPairsErrors pins the restricted build's rejections: a pair
// out of range; the first failing pair in src-major order, whatever
// order the pairs come in, for routing and for turn errors alike; and a
// failing pair that is left out does not fail the build.
func TestNewForPairsErrors(t *testing.T) {
	mesh3 := mustMesh(t, 3, 3)
	p := photonic.DefaultParams()
	for _, pr := range [][2]topo.TileID{{9, 0}, {0, -1}} {
		want := fmt.Sprintf("network: pair %d->%d out of range for 9 tiles", pr[0], pr[1])
		if _, err := NewForPairs(mesh3, router.Crux(), route.XY{}, p, [][2]topo.TileID{{0, 1}, pr}); err == nil || err.Error() != want {
			t.Errorf("pair %v: error %v, want %q", pr, err, want)
		}
	}

	split, err := topo.Degrade(mesh3, [][2]topo.TileID{{1, 2}, {2, 1}, {4, 5}, {5, 4}, {7, 8}, {8, 7}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		top   topo.Topology
		arch  *router.Architecture
		algo  route.Algorithm
		pairs [][2]topo.TileID
		want  string // "" when the build succeeds
	}{
		{"src-major order", split, router.Cygnus(), route.BFS{}, [][2]topo.TileID{{5, 3}, {2, 0}, {1, 0}},
			"network: routing 2->0: route: 0 unreachable from 2 on mesh-3x3-degraded"},
		{"unreachable pair left out", split, router.Cygnus(), route.BFS{}, [][2]topo.TileID{{0, 1}, {3, 6}, {8, 5}}, ""},
		// 8->0 turns south->west at tile 2, but 7->5 (south->east at
		// tile 4) comes first in src-major order.
		{"turn of a requested pair", mesh3, router.Crux(), route.YX{}, [][2]topo.TileID{{8, 0}, {7, 5}},
			"network: router crux at tile 4 does not support turn south->east required by yx routing"},
		{"unsupported turn left out", mesh3, router.Crux(), route.YX{}, [][2]topo.TileID{{0, 6}, {6, 8}}, ""},
	}
	for _, tc := range cases {
		_, err := NewForPairs(tc.top, tc.arch, tc.algo, p, tc.pairs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		checkPairBuild(t, tc.top, tc.arch, tc.algo, p, tc.pairs)
	}
}

// TestNewForPairsCountsBuilds: a restricted build counts in the same
// process-wide counters as New.
func TestNewForPairsCountsBuilds(t *testing.T) {
	before, seconds := BuildsTotal(), BuildSecondsTotal()
	if _, err := NewForPairs(mustMesh(t, 4, 4), router.Crux(), route.XY{}, photonic.DefaultParams(), [][2]topo.TileID{{0, 15}}); err != nil {
		t.Fatal(err)
	}
	if got := BuildsTotal() - before; got != 1 {
		t.Errorf("BuildsTotal grew by %d, want 1", got)
	}
	if BuildSecondsTotal() <= seconds {
		t.Errorf("BuildSecondsTotal did not grow from %v", seconds)
	}
}

// FuzzPairBuildMatchesNew explores topology kind, size, router, routing,
// a parameter seed (0 for Table I), an optional single-link cut (0 for
// none) and a subset of pairs (two bytes per pair, each taken modulo the
// tile count), requiring NewForPairs to give every requested pair New's
// path or New's error for it. Its seed corpus is in testdata/fuzz.
func FuzzPairBuildMatchesNew(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), int64(0), uint16(0), []byte{0, 8, 3, 5, 7, 1})
	f.Fuzz(func(t *testing.T, kind, size, routerIdx, routingIdx uint8, seed int64, cut uint16, subset []byte) {
		var base topo.Topology
		var err error
		switch kind % 3 {
		case 0:
			base, err = topo.NewMesh(2+int(size%5), 2+int(size/5%5))
		case 1:
			base, err = topo.NewTorus(2+int(size%5), 2+int(size/5%5))
		default:
			base, err = topo.NewRing(3 + int(size%10))
		}
		if err != nil {
			t.Skip(err)
		}
		top := base
		if cut > 0 {
			links := base.Links()
			l := links[int(cut-1)%len(links)]
			if top, err = topo.Degrade(base, [][2]topo.TileID{{l.From, l.To}, {l.To, l.From}}); err != nil {
				t.Skip(err)
			}
		}
		names := router.Names()
		arch, err := router.ByName(names[int(routerIdx)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		algo := referenceRoutings[int(routingIdx)%len(referenceRoutings)]
		n := top.NumTiles()
		pairs := make([][2]topo.TileID, 0, len(subset)/2)
		for i := 0; i+1 < len(subset); i += 2 {
			pairs = append(pairs, [2]topo.TileID{topo.TileID(int(subset[i]) % n), topo.TileID(int(subset[i+1]) % n)})
		}
		checkPairBuild(t, top, arch, algo, perturbedParams(seed), pairs)
	})
}
