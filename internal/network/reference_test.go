package network

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

// referenceNew is a frozen copy of New as it stood before the
// single-pass build: each pair is routed and expanded on its own, every
// hop resolves its turn through Architecture.Steps, steps grow by
// append, and every step converts its two dB values with
// photonic.DBToLinear. New must reproduce its paths and its errors bit
// for bit.
func referenceNew(t topo.Topology, arch *router.Architecture, algo route.Algorithm, p photonic.Params) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(t); err != nil {
		return nil, err
	}
	n := t.NumTiles()
	nw := &Network{top: t, arch: arch, algo: algo, params: p}
	nw.paths = make([][]*Path, n)
	for src := 0; src < n; src++ {
		nw.paths[src] = make([]*Path, n)
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			path, err := referenceExpand(nw, topo.TileID(src), topo.TileID(dst))
			if err != nil {
				return nil, err
			}
			nw.paths[src][dst] = path
		}
	}
	return nw, nil
}

func referenceDirToPort(d topo.Direction) router.Port {
	switch d {
	case topo.North:
		return router.North
	case topo.East:
		return router.East
	case topo.South:
		return router.South
	default:
		return router.West
	}
}

func referenceExpand(nw *Network, src, dst topo.TileID) (*Path, error) {
	links, err := nw.algo.Route(nw.top, src, dst)
	if err != nil {
		return nil, fmt.Errorf("network: routing %d->%d: %w", src, dst, err)
	}
	if err := route.Check(src, dst, links); err != nil {
		return nil, fmt.Errorf("network: %s produced a broken path: %w", nw.algo.Name(), err)
	}
	path := &Path{Src: src, Dst: dst, Hops: len(links)}
	acc := 0.0
	numElems := nw.arch.NumElements()

	appendTurn := func(tile topo.TileID, in, out router.Port) error {
		steps, ok := nw.arch.Steps(nw.params, in, out)
		if !ok {
			return fmt.Errorf("network: router %s at tile %d does not support turn %v->%v required by %s routing",
				nw.arch.Name(), tile, in, out, nw.algo.Name())
		}
		for _, s := range steps {
			path.Steps = append(path.Steps, Step{
				Node:       GlobalElem(int(tile)*numElems + int(s.Elem)),
				Tile:       tile,
				Kind:       s.Kind,
				In:         s.In,
				Out:        s.Out,
				State:      s.State,
				Loss:       s.Loss,
				LossBefore: acc,
			})
			acc += s.Loss
		}
		return nil
	}
	linkLoss := func(l topo.Link) float64 {
		return nw.params.PropagationLoss(l.LengthCm) +
			float64(l.Crossings)*nw.params.CrossingLoss
	}

	in := router.Local
	for _, l := range links {
		if err := appendTurn(l.From, in, referenceDirToPort(l.Dir)); err != nil {
			return nil, err
		}
		acc += linkLoss(l)
		in = referenceDirToPort(l.Dir.Opposite())
	}
	if len(links) > 0 {
		if err := appendTurn(dst, in, router.Local); err != nil {
			return nil, err
		}
	}
	path.TotalLoss = acc
	for i := range path.Steps {
		s := &path.Steps[i]
		s.LinLossBefore = photonic.DBToLinear(s.LossBefore)
		s.LinDownstream = photonic.DBToLinear(path.TotalLoss - s.LossBefore - s.Loss)
	}
	return path, nil
}

// perturbedParams scales every Table I coefficient by an independent
// seeded factor in [0.9, 1.1], the way the robustness analysis draws its
// samples, so the build sees loss values that do not sum to round
// numbers.
func perturbedParams(seed int64) photonic.Params {
	p := photonic.DefaultParams()
	if seed == 0 {
		return p
	}
	rng := rand.New(rand.NewSource(seed))
	f := func(v float64) float64 { return v * (1 + 0.1*(2*rng.Float64()-1)) }
	return photonic.Params{
		CrossingLoss:         f(p.CrossingLoss),
		PropagationLossPerCm: f(p.PropagationLossPerCm),
		PPSEOffLoss:          f(p.PPSEOffLoss),
		PPSEOnLoss:           f(p.PPSEOnLoss),
		CPSEOffLoss:          f(p.CPSEOffLoss),
		CPSEOnLoss:           f(p.CPSEOnLoss),
		CrossingCrosstalk:    f(p.CrossingCrosstalk),
		PSEOffCrosstalk:      f(p.PSEOffCrosstalk),
		PSEOnCrosstalk:       f(p.PSEOnCrosstalk),
	}
}

// sameFloat compares by bits: the build must not move any value by
// even one ulp.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffNetworks returns the first difference between two builds'
// paths, or "" when every ordered pair's path matches field for field.
func diffNetworks(got, want *Network) string {
	n := want.NumTiles()
	if got.NumTiles() != n {
		return fmt.Sprintf("tiles %d, want %d", got.NumTiles(), n)
	}
	for src := topo.TileID(0); int(src) < n; src++ {
		for dst := topo.TileID(0); int(dst) < n; dst++ {
			if d := diffPath(got.Path(src, dst), want.Path(src, dst)); d != "" {
				return d
			}
		}
	}
	return ""
}

// diffPath returns the first difference between two paths, or "" when
// every path field and every step field matches, floats by bits.
func diffPath(g, w *Path) string {
	if g.Src != w.Src || g.Dst != w.Dst || g.Hops != w.Hops ||
		!sameFloat(g.TotalLoss, w.TotalLoss) || len(g.Steps) != len(w.Steps) {
		return fmt.Sprintf("%d->%d: path {%d %d %d %v %d steps}, want {%d %d %d %v %d steps}",
			w.Src, w.Dst, g.Src, g.Dst, g.Hops, g.TotalLoss, len(g.Steps),
			w.Src, w.Dst, w.Hops, w.TotalLoss, len(w.Steps))
	}
	for i := range w.Steps {
		gs, ws := g.Steps[i], w.Steps[i]
		if gs.Node != ws.Node || gs.Tile != ws.Tile || gs.Kind != ws.Kind ||
			gs.In != ws.In || gs.Out != ws.Out || gs.State != ws.State ||
			!sameFloat(gs.Loss, ws.Loss) || !sameFloat(gs.LossBefore, ws.LossBefore) ||
			!sameFloat(gs.LinLossBefore, ws.LinLossBefore) ||
			!sameFloat(gs.LinDownstream, ws.LinDownstream) {
			return fmt.Sprintf("%d->%d step %d: %+v, want %+v", w.Src, w.Dst, i, gs, ws)
		}
	}
	return ""
}

// checkAgainstReference builds with New and with referenceNew and
// requires the same error text, or the same paths bit for bit.
func checkAgainstReference(t *testing.T, top topo.Topology, arch *router.Architecture, algo route.Algorithm, p photonic.Params) {
	t.Helper()
	want, wantErr := referenceNew(top, arch, algo, p)
	got, err := New(top, arch, algo, p)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("New error %v, want %v", err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("New: %v (the reference built it)", err)
	}
	if d := diffNetworks(got, want); d != "" {
		t.Fatal(d)
	}
}

// referenceTopologies is the table the build is pinned on: meshes of
// every size the tool maps onto, tori, a ring, non-default die sizes and
// wrap crossings, and grids with failed links.
func referenceTopologies(t *testing.T) []topo.Topology {
	var tops []topo.Topology
	add := func(top topo.Topology, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, top)
	}
	for _, side := range []int{2, 3, 4, 5, 6, 8} {
		add(topo.NewMesh(side, side))
	}
	for _, side := range []int{3, 4, 5} {
		add(topo.NewTorus(side, side))
	}
	add(topo.NewRing(6))
	add(topo.NewMesh(4, 3, topo.WithDieCm(1.3)))
	add(topo.NewTorus(4, 4, topo.WithWrapCrossings(3), topo.WithDieCm(2.7)))
	mesh3 := mustMesh(t, 3, 3)
	add(topo.Degrade(mesh3, [][2]topo.TileID{{1, 4}, {4, 1}}))
	// Cutting 1-2, 4-5 and 7-8 splits the 3x3 mesh into two columns
	// without isolating any tile, so BFS routing fails at pair 0->2.
	add(topo.Degrade(mesh3, [][2]topo.TileID{{1, 2}, {2, 1}, {4, 5}, {5, 4}, {7, 8}, {8, 7}}))
	tor4, err := topo.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	add(topo.Degrade(tor4, [][2]topo.TileID{{0, 3}, {3, 0}, {5, 6}, {6, 5}}))
	return tops
}

var referenceRoutings = []route.Algorithm{route.XY{}, route.YX{}, route.BFS{}}

// TestNewMatchesReference pins New to the frozen reference over every
// topology, router and routing pairing, with default and perturbed
// parameters: every accepted build's paths match bit for bit, and every
// rejected one returns the reference's error text.
func TestNewMatchesReference(t *testing.T) {
	for _, top := range referenceTopologies(t) {
		for _, name := range router.Names() {
			arch, err := router.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range referenceRoutings {
				for _, seed := range []int64{0, 7} {
					t.Run(fmt.Sprintf("%s/%s/%s/params-%d", top.Name(), name, algo.Name(), seed), func(t *testing.T) {
						checkAgainstReference(t, top, arch, algo, perturbedParams(seed))
					})
				}
			}
		}
	}
}

// TestNewErrorsMatchReference pins two rejections by their exact text:
// a turn the router lacks, and a pair that routing cannot reach.
func TestNewErrorsMatchReference(t *testing.T) {
	mesh3, err := topo.NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	split, err := topo.Degrade(mesh3, [][2]topo.TileID{{1, 2}, {2, 1}, {4, 5}, {5, 4}, {7, 8}, {8, 7}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		top  topo.Topology
		arch *router.Architecture
		algo route.Algorithm
		want string
	}{
		{mesh3, router.Crux(), route.YX{}, "network: router crux at tile 3 does not support turn north->east required by yx routing"},
		{split, router.Cygnus(), route.BFS{}, "network: routing 0->2: route: 2 unreachable from 0 on mesh-3x3-degraded"},
	}
	for _, tc := range cases {
		_, err := New(tc.top, tc.arch, tc.algo, photonic.DefaultParams())
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s + %s + %s: error %v, want %q", tc.top.Name(), tc.arch.Name(), tc.algo.Name(), err, tc.want)
		}
		checkAgainstReference(t, tc.top, tc.arch, tc.algo, photonic.DefaultParams())
	}
}

// TestPathStepsDoNotAlias appends to one path's steps and checks that no
// other path changed: every Path.Steps is full to capacity, so an append
// reallocates instead of writing into the next path.
func TestPathStepsDoNotAlias(t *testing.T) {
	nw := newMeshNet(t, 4, 4)
	want, err := referenceNew(nw.Topology(), nw.Router(), nw.Routing(), nw.Params())
	if err != nil {
		t.Fatal(err)
	}
	if d := diffNetworks(nw, want); d != "" {
		t.Fatalf("build differs from the reference: %s", d)
	}
	for src := topo.TileID(0); src < 16; src++ {
		for dst := topo.TileID(0); dst < 16; dst++ {
			p := nw.Path(src, dst)
			if len(p.Steps) != cap(p.Steps) {
				t.Fatalf("%d->%d: len %d, cap %d", src, dst, len(p.Steps), cap(p.Steps))
			}
			grown := append(p.Steps, Step{Node: -1, Loss: 1, LinDownstream: -1})
			grown[0].Loss = 1
		}
	}
	if d := diffNetworks(nw, want); d != "" {
		t.Fatalf("an append to one path changed another: %s", d)
	}
}

// TestNewConcurrent builds from several goroutines at once: each build
// owns its turn table, slab and memo, so every result matches the
// reference, and the process-wide counters see every build.
func TestNewConcurrent(t *testing.T) {
	g := mustMesh(t, 4, 4)
	want, err := referenceNew(g, router.Cygnus(), route.YX{}, perturbedParams(3))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	before, seconds := BuildsTotal(), BuildSecondsTotal()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nw, err := New(g, router.Cygnus(), route.YX{}, perturbedParams(3))
			if err != nil {
				t.Error(err)
				return
			}
			if d := diffNetworks(nw, want); d != "" {
				t.Error(d)
			}
		}()
	}
	wg.Wait()
	if got := BuildsTotal() - before; got != workers {
		t.Errorf("BuildsTotal grew by %d, want %d", got, workers)
	}
	if BuildSecondsTotal() <= seconds {
		t.Errorf("BuildSecondsTotal did not grow from %v", seconds)
	}
}

// FuzzNetworkBuildMatchesReference explores topology kind, size,
// router, routing, a parameter seed (0 for Table I) and an optional
// single-link cut (0 for none), requiring New to match the frozen
// reference. Its seed corpus is in testdata/fuzz.
func FuzzNetworkBuildMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(0), uint8(0), int64(0), uint16(0))
	f.Fuzz(func(t *testing.T, kind, size, routerIdx, routingIdx uint8, seed int64, cut uint16) {
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
			deg, err := topo.Degrade(base, [][2]topo.TileID{{l.From, l.To}, {l.To, l.From}})
			if err != nil {
				t.Skip(err)
			}
			top = deg
		}
		names := router.Names()
		arch, err := router.ByName(names[int(routerIdx)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		algo := referenceRoutings[int(routingIdx)%len(referenceRoutings)]
		checkAgainstReference(t, top, arch, algo, perturbedParams(seed))
	})
}
