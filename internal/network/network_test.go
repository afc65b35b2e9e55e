package network

import (
	"math"
	"testing"
	"testing/quick"

	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

func mustMesh(t *testing.T, w, h int) *topo.Grid {
	t.Helper()
	g, err := topo.NewMesh(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newMeshNet(t *testing.T, w, h int) *Network {
	t.Helper()
	nw, err := New(mustMesh(t, w, h), router.Crux(), route.XY{}, photonic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewValidates(t *testing.T) {
	bad := photonic.DefaultParams()
	bad.CrossingLoss = 1 // positive loss
	if _, err := New(mustMesh(t, 3, 3), router.Crux(), route.XY{}, bad); err == nil {
		t.Error("New accepted invalid params")
	}
}

func TestNewRejectsUnsupportedTurns(t *testing.T) {
	// Crux lacks Y->X turns, so YX routing must fail at construction.
	if _, err := New(mustMesh(t, 3, 3), router.Crux(), route.YX{}, photonic.DefaultParams()); err == nil {
		t.Error("Crux + YX accepted")
	}
	// The crossbar supports all turns, so YX works.
	if _, err := New(mustMesh(t, 3, 3), router.Crossbar(), route.YX{}, photonic.DefaultParams()); err != nil {
		t.Errorf("crossbar + YX rejected: %v", err)
	}
}

func TestNewRejectsNonGridAlgorithmMismatch(t *testing.T) {
	r, _ := topo.NewRing(6)
	if _, err := New(r, router.Crux(), route.XY{}, photonic.DefaultParams()); err == nil {
		t.Error("XY routing on a ring accepted")
	}
	// BFS on a ring needs only E/W through turns, ejection and
	// injection, all of which Crux has.
	if _, err := New(r, router.Crux(), route.BFS{}, photonic.DefaultParams()); err != nil {
		t.Errorf("BFS ring rejected: %v", err)
	}
}

func TestPathSelfIsEmpty(t *testing.T) {
	nw := newMeshNet(t, 3, 3)
	p := nw.Path(4, 4)
	if p == nil || len(p.Steps) != 0 || p.TotalLoss != 0 || p.Hops != 0 {
		t.Errorf("self path = %+v", p)
	}
}

func TestPathOutOfRange(t *testing.T) {
	nw := newMeshNet(t, 3, 3)
	if nw.Path(-1, 2) != nil || nw.Path(0, 9) != nil {
		t.Error("out-of-range Path returned non-nil")
	}
}

func TestAdjacentPathStructure(t *testing.T) {
	nw := newMeshNet(t, 3, 3)
	g := nw.Topology().(*topo.Grid)
	src, _ := g.TileAt(0, 0)
	dst, _ := g.TileAt(1, 0)
	p := nw.Path(src, dst)
	if p.Hops != 1 {
		t.Fatalf("adjacent hops = %d", p.Hops)
	}
	// Path: src router L->E, then dst router W->L.
	cruxArch := router.Crux()
	stepsInject, _ := cruxArch.Steps(nw.Params(), router.Local, router.East)
	stepsEject, _ := cruxArch.Steps(nw.Params(), router.West, router.Local)
	wantSteps := len(stepsInject) + len(stepsEject)
	if len(p.Steps) != wantSteps {
		t.Errorf("steps = %d, want %d", len(p.Steps), wantSteps)
	}
	// First steps belong to src tile, last ones to dst tile.
	if p.Steps[0].Tile != src || p.Steps[len(p.Steps)-1].Tile != dst {
		t.Error("step tiles wrong")
	}
	// Total loss = inject + link + eject.
	injLoss, _ := cruxArch.PathLoss(nw.Params(), router.Local, router.East)
	ejLoss, _ := cruxArch.PathLoss(nw.Params(), router.West, router.Local)
	link, _ := g.OutLink(src, topo.East)
	want := injLoss + ejLoss + nw.Params().PropagationLoss(link.LengthCm)
	if math.Abs(p.TotalLoss-want) > 1e-12 {
		t.Errorf("TotalLoss = %v, want %v", p.TotalLoss, want)
	}
}

func TestLossBeforeMonotone(t *testing.T) {
	nw := newMeshNet(t, 4, 4)
	p := nw.Path(0, 15)
	if p.Hops != 6 {
		t.Fatalf("corner-to-corner hops = %d, want 6", p.Hops)
	}
	prev := 0.0
	for i, s := range p.Steps {
		if s.LossBefore > prev+1e-12 {
			t.Fatalf("step %d: LossBefore %v not monotone (prev %v)", i, s.LossBefore, prev)
		}
		prev = s.LossBefore + s.Loss
	}
	// Final accumulated loss must not exceed TotalLoss (links add more).
	if prev < p.TotalLoss-1e-9 {
		t.Errorf("accumulated %v exceeds TotalLoss %v in magnitude", prev, p.TotalLoss)
	}
}

func TestGlobalElemDisjointAcrossTiles(t *testing.T) {
	nw := newMeshNet(t, 3, 3)
	p := nw.Path(0, 8) // multiple routers traversed
	numElems := nw.Router().NumElements()
	for _, s := range p.Steps {
		tileOf := int(s.Node) / numElems
		if tileOf != int(s.Tile) {
			t.Fatalf("step node %d maps to tile %d, step says %d", s.Node, tileOf, s.Tile)
		}
	}
}

func TestTurnSequenceThroughIntermediates(t *testing.T) {
	nw := newMeshNet(t, 4, 4)
	g := nw.Topology().(*topo.Grid)
	src, _ := g.TileAt(0, 0)
	dst, _ := g.TileAt(2, 2)
	p := nw.Path(src, dst)
	// XY: east, east, south, south. Intermediate tile (1,0) sees W->E;
	// turn tile (2,0) sees W->S; intermediate (2,1) sees N->S.
	tiles := map[topo.TileID]bool{}
	for _, s := range p.Steps {
		tiles[s.Tile] = true
	}
	for _, want := range []struct{ x, y int }{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}} {
		id, _ := g.TileAt(want.x, want.y)
		if !tiles[id] {
			t.Errorf("path misses tile (%d,%d)", want.x, want.y)
		}
	}
	if len(tiles) != 5 {
		t.Errorf("path touches %d tiles, want 5", len(tiles))
	}
}

// Property: on a mesh, longer Manhattan distance never gives smaller
// loss magnitude for straight-line paths along one axis.
func TestLossMonotoneInDistance(t *testing.T) {
	nw := newMeshNet(t, 4, 4)
	g := nw.Topology().(*topo.Grid)
	src, _ := g.TileAt(0, 0)
	prev := 0.0
	for x := 1; x < 4; x++ {
		dst, _ := g.TileAt(x, 0)
		loss := nw.Path(src, dst).TotalLoss
		if loss >= prev && x > 1 {
			t.Errorf("loss at distance %d (%v) not worse than distance %d (%v)", x, loss, x-1, prev)
		}
		prev = loss
	}
}

// Property: every path's step count and loss are reproducible and every
// pair is reachable.
func TestAllPairsExpanded(t *testing.T) {
	nw := newMeshNet(t, 4, 4)
	f := func(sRaw, dRaw uint8) bool {
		src := topo.TileID(int(sRaw) % 16)
		dst := topo.TileID(int(dRaw) % 16)
		p := nw.Path(src, dst)
		if p == nil {
			return false
		}
		if src == dst {
			return len(p.Steps) == 0
		}
		return len(p.Steps) > 0 && p.TotalLoss < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTorusNetworkBuilds(t *testing.T) {
	tor, err := topo.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(tor, router.Crux(), route.XY{}, photonic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Torus wrap makes distant mesh pairs near: (0,0)->(3,3) is 2 hops.
	g := nw.Topology().(*topo.Grid)
	src, _ := g.TileAt(0, 0)
	dst, _ := g.TileAt(3, 3)
	if p := nw.Path(src, dst); p.Hops != 2 {
		t.Errorf("torus corner path hops = %d, want 2", p.Hops)
	}
}

func TestTorusLinkCrossingsAddLoss(t *testing.T) {
	base, _ := topo.NewTorus(4, 4)
	crossed, _ := topo.NewTorus(4, 4, topo.WithWrapCrossings(3))
	p := photonic.DefaultParams()
	nw1, err := New(base, router.Crux(), route.XY{}, p)
	if err != nil {
		t.Fatal(err)
	}
	nw2, err := New(crossed, router.Crux(), route.XY{}, p)
	if err != nil {
		t.Fatal(err)
	}
	l1 := nw1.Path(0, 1).TotalLoss
	l2 := nw2.Path(0, 1).TotalLoss
	want := l1 + 3*p.CrossingLoss
	if math.Abs(l2-want) > 1e-12 {
		t.Errorf("crossed link loss = %v, want %v", l2, want)
	}
}

func TestWorstPathLoss(t *testing.T) {
	nw := newMeshNet(t, 4, 4)
	worst := nw.WorstPathLoss()
	corner := nw.Path(0, 15).TotalLoss
	if worst > corner {
		t.Errorf("WorstPathLoss %v better than corner-to-corner %v", worst, corner)
	}
	if worst >= 0 || worst < -6 {
		t.Errorf("WorstPathLoss %v outside plausible range", worst)
	}
}

func TestNumElementsAndString(t *testing.T) {
	nw := newMeshNet(t, 3, 3)
	want := 9 * router.Crux().NumElements()
	if nw.NumElements() != want {
		t.Errorf("NumElements = %d, want %d", nw.NumElements(), want)
	}
	if nw.String() == "" {
		t.Error("empty String()")
	}
	if nw.Routing().Name() != "xy" {
		t.Errorf("Routing().Name() = %q", nw.Routing().Name())
	}
}

func TestPathsDeterministic(t *testing.T) {
	nw1 := newMeshNet(t, 4, 4)
	nw2 := newMeshNet(t, 4, 4)
	for src := topo.TileID(0); src < 16; src++ {
		for dst := topo.TileID(0); dst < 16; dst++ {
			p1, p2 := nw1.Path(src, dst), nw2.Path(src, dst)
			if p1.TotalLoss != p2.TotalLoss || len(p1.Steps) != len(p2.Steps) {
				t.Fatalf("paths differ for %d->%d", src, dst)
			}
			for i := range p1.Steps {
				if p1.Steps[i] != p2.Steps[i] {
					t.Fatalf("step %d differs for %d->%d", i, src, dst)
				}
			}
		}
	}
}

func TestCygnusSupportsYX(t *testing.T) {
	// Cygnus provides the Y-to-X turns Crux lacks, so YX routing builds.
	nw, err := New(mustMesh(t, 3, 3), router.Cygnus(), route.YX{}, photonic.DefaultParams())
	if err != nil {
		t.Fatalf("cygnus + yx rejected: %v", err)
	}
	g := nw.Topology().(*topo.Grid)
	src, _ := g.TileAt(0, 0)
	dst, _ := g.TileAt(2, 2)
	p := nw.Path(src, dst)
	if p == nil || p.Hops != 4 {
		t.Fatalf("path = %+v", p)
	}
}

// TestPathsCrossEachElementOnceAsItsKind pins the invariants the
// crosstalk kernel's class-run walk rests on, over every topology,
// router and routing pairing the build accepts: no path traverses one
// element twice, so two steps sharing an element always belong to two
// different communications; and every step crossing an element carries
// that element's kind, so the steps of one element differ in ring state
// and ports only.
func TestPathsCrossEachElementOnceAsItsKind(t *testing.T) {
	built := 0
	for _, top := range referenceTopologies(t) {
		for _, name := range router.Names() {
			arch, err := router.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range referenceRoutings {
				nw, err := New(top, arch, algo, photonic.DefaultParams())
				if err != nil {
					continue
				}
				built++
				// seenBy[g] is 1 + the index of the last path that
				// crossed element g.
				seenBy := make([]int, nw.NumElements())
				n := top.NumTiles()
				for src := topo.TileID(0); int(src) < n; src++ {
					for dst := topo.TileID(0); int(dst) < n; dst++ {
						pi := 1 + int(src)*n + int(dst)
						for _, s := range nw.Path(src, dst).Steps {
							if seenBy[s.Node] == pi {
								t.Fatalf("%s/%s/%s: path %d->%d crosses element %d twice", top.Name(), name, algo.Name(), src, dst, s.Node)
							}
							seenBy[s.Node] = pi
							el, ok := arch.Element(router.ElemID(int(s.Node) % arch.NumElements()))
							if !ok || el.Kind != s.Kind {
								t.Fatalf("%s/%s/%s: path %d->%d crosses element %d (%v) as a %v step", top.Name(), name, algo.Name(), src, dst, s.Node, el.Kind, s.Kind)
							}
						}
					}
				}
			}
		}
	}
	if built == 0 {
		t.Fatal("no pairing built")
	}
}
