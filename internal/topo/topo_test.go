package topo

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDirectionOpposite(t *testing.T) {
	pairs := map[Direction]Direction{North: South, South: North, East: West, West: East}
	for d, want := range pairs {
		if got := d.Opposite(); got != want {
			t.Errorf("%v.Opposite() = %v, want %v", d, got, want)
		}
		if d.Opposite().Opposite() != d {
			t.Errorf("Opposite not an involution for %v", d)
		}
	}
}

func TestDirectionString(t *testing.T) {
	want := map[Direction]string{North: "north", East: "east", South: "south", West: "west"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), s)
		}
		if !d.Valid() {
			t.Errorf("%v invalid", d)
		}
	}
	if Direction(4).Valid() {
		t.Error("Direction(4) valid")
	}
}

func TestNewMeshShape(t *testing.T) {
	m, err := NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "mesh-4x4" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.NumTiles() != 16 {
		t.Errorf("NumTiles = %d, want 16", m.NumTiles())
	}
	// 2*W*H - W - H undirected neighbor pairs, two directed links each.
	wantLinks := 2 * (2*4*4 - 4 - 4)
	if got := len(m.Links()); got != wantLinks {
		t.Errorf("len(Links) = %d, want %d", got, wantLinks)
	}
	if m.Wrap() {
		t.Error("mesh reports Wrap")
	}
	if err := Validate(m); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewMeshRejectsTiny(t *testing.T) {
	if _, err := NewMesh(1, 4); err == nil {
		t.Error("accepted 1x4 mesh")
	}
	if _, err := NewMesh(4, 0); err == nil {
		t.Error("accepted 4x0 mesh")
	}
	if _, err := NewMesh(4, 4, WithDieCm(-1)); err == nil {
		t.Error("accepted negative die size")
	}
	if _, err := NewTorus(4, 4, WithWrapCrossings(-2)); err == nil {
		t.Error("accepted negative wrap crossings")
	}
}

// TestGridRejectsOverflowingTileCount asks for grids whose tile count
// overflows an int: each must be an error, not a panic or an allocation.
func TestGridRejectsOverflowingTileCount(t *testing.T) {
	for _, c := range [][2]int{{1 << 62, 4}, {4, 1 << 62}, {math.MaxInt, 2}, {math.MaxInt, math.MaxInt}} {
		if _, err := NewMesh(c[0], c[1]); err == nil {
			t.Errorf("accepted a %dx%d mesh", c[0], c[1])
		}
		if _, err := NewTorus(c[0], c[1]); err == nil {
			t.Errorf("accepted a %dx%d torus", c[0], c[1])
		}
	}
}

func TestMeshCoordRoundTrip(t *testing.T) {
	m, _ := NewMesh(5, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 5; x++ {
			id, ok := m.TileAt(x, y)
			if !ok {
				t.Fatalf("TileAt(%d,%d) failed", x, y)
			}
			gx, gy := m.Coord(id)
			if gx != x || gy != y {
				t.Errorf("Coord(TileAt(%d,%d)) = (%d,%d)", x, y, gx, gy)
			}
		}
	}
	if _, ok := m.TileAt(5, 0); ok {
		t.Error("TileAt out of range succeeded")
	}
	if _, ok := m.TileAt(0, -1); ok {
		t.Error("TileAt negative succeeded")
	}
}

func TestMeshBorderTilesLackOutwardLinks(t *testing.T) {
	m, _ := NewMesh(3, 3)
	corner, _ := m.TileAt(0, 0)
	if _, ok := m.OutLink(corner, North); ok {
		t.Error("corner (0,0) has a north link")
	}
	if _, ok := m.OutLink(corner, West); ok {
		t.Error("corner (0,0) has a west link")
	}
	if l, ok := m.OutLink(corner, East); !ok || l.To != 1 {
		t.Errorf("corner east link = %+v, ok=%v", l, ok)
	}
	if l, ok := m.OutLink(corner, South); !ok || l.To != 3 {
		t.Errorf("corner south link = %+v, ok=%v", l, ok)
	}
	if n := m.Neighbors(corner); len(n) != 2 {
		t.Errorf("corner neighbor count = %d, want 2", len(n))
	}
	center, _ := m.TileAt(1, 1)
	if n := m.Neighbors(center); len(n) != 4 {
		t.Errorf("center neighbor count = %d, want 4", len(n))
	}
}

func TestMeshLinkLength(t *testing.T) {
	m, _ := NewMesh(4, 4, WithDieCm(2))
	for _, l := range m.Links() {
		if math.Abs(l.LengthCm-0.5) > 1e-12 {
			t.Fatalf("mesh 4x4 on 2cm die: link length %v, want 0.5", l.LengthCm)
		}
		if l.Crossings != 0 {
			t.Fatalf("mesh link has %d crossings, want 0", l.Crossings)
		}
	}
	// Non-square grid uses the longer axis for pitch.
	m2, _ := NewMesh(8, 2, WithDieCm(2))
	for _, l := range m2.Links() {
		if math.Abs(l.LengthCm-0.25) > 1e-12 {
			t.Fatalf("mesh 8x2: link length %v, want 0.25", l.LengthCm)
		}
	}
}

func TestTorusShape(t *testing.T) {
	tr, err := NewTorus(4, 4, WithDieCm(2), WithWrapCrossings(2))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "torus-4x4" {
		t.Errorf("Name = %q", tr.Name())
	}
	if !tr.Wrap() {
		t.Error("torus does not report Wrap")
	}
	// Every tile has all four outgoing links.
	wantLinks := 4 * 16
	if got := len(tr.Links()); got != wantLinks {
		t.Errorf("len(Links) = %d, want %d", got, wantLinks)
	}
	for _, l := range tr.Links() {
		if math.Abs(l.LengthCm-1.0) > 1e-12 { // folded torus: 2 * pitch
			t.Fatalf("torus link length %v, want 1.0", l.LengthCm)
		}
		if l.Crossings != 2 {
			t.Fatalf("torus link crossings = %d, want 2", l.Crossings)
		}
	}
	if err := Validate(tr); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTorusWraparound(t *testing.T) {
	tr, _ := NewTorus(4, 4)
	eastEdge, _ := tr.TileAt(3, 1)
	wrapped, _ := tr.TileAt(0, 1)
	l, ok := tr.OutLink(eastEdge, East)
	if !ok || l.To != wrapped {
		t.Errorf("east wrap link = %+v, ok=%v, want to %d", l, ok, wrapped)
	}
	northEdge, _ := tr.TileAt(2, 0)
	wrappedN, _ := tr.TileAt(2, 3)
	l, ok = tr.OutLink(northEdge, North)
	if !ok || l.To != wrappedN {
		t.Errorf("north wrap link = %+v, ok=%v, want to %d", l, ok, wrappedN)
	}
}

func TestSmallTorusValidates(t *testing.T) {
	// 2-wide tori have doubly adjacent tile pairs; Validate must still
	// pass because reverse links are matched by direction.
	tr, err := NewTorus(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(tr); err != nil {
		t.Errorf("Validate(2x2 torus): %v", err)
	}
}

func TestGridOutLinkBounds(t *testing.T) {
	m, _ := NewMesh(3, 3)
	if _, ok := m.OutLink(TileID(-1), East); ok {
		t.Error("OutLink accepted negative tile")
	}
	if _, ok := m.OutLink(TileID(99), East); ok {
		t.Error("OutLink accepted out-of-range tile")
	}
	if _, ok := m.OutLink(0, Direction(9)); ok {
		t.Error("OutLink accepted invalid direction")
	}
	if m.Neighbors(TileID(-3)) != nil {
		t.Error("Neighbors accepted negative tile")
	}
	if _, ok := m.LinkTo(TileID(77), 0); ok {
		t.Error("LinkTo accepted out-of-range tile")
	}
}

func TestLinkToAdjacency(t *testing.T) {
	m, _ := NewMesh(3, 3)
	a, _ := m.TileAt(0, 0)
	b, _ := m.TileAt(1, 0)
	c, _ := m.TileAt(2, 2)
	if _, ok := m.LinkTo(a, b); !ok {
		t.Error("adjacent tiles have no link")
	}
	if _, ok := m.LinkTo(a, c); ok {
		t.Error("non-adjacent tiles have a link")
	}
}

// Property: every grid validates and every tile's neighbor links start at
// that tile.
func TestGridProperty(t *testing.T) {
	f := func(wRaw, hRaw uint8, torus bool) bool {
		w := 2 + int(wRaw%7)
		h := 2 + int(hRaw%7)
		var g *Grid
		var err error
		if torus {
			g, err = NewTorus(w, h)
		} else {
			g, err = NewMesh(w, h)
		}
		if err != nil {
			return false
		}
		if Validate(g) != nil {
			return false
		}
		for tile := 0; tile < g.NumTiles(); tile++ {
			for _, l := range g.Neighbors(TileID(tile)) {
				if l.From != TileID(tile) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRing(t *testing.T) {
	r, err := NewRing(8, WithDieCm(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "ring-8" || r.NumTiles() != 8 {
		t.Errorf("ring shape: %q %d", r.Name(), r.NumTiles())
	}
	if err := Validate(r); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if len(r.Links()) != 16 {
		t.Errorf("ring links = %d, want 16", len(r.Links()))
	}
	l, ok := r.OutLink(7, East)
	if !ok || l.To != 0 {
		t.Errorf("ring wrap east: %+v ok=%v", l, ok)
	}
	l, ok = r.OutLink(0, West)
	if !ok || l.To != 7 {
		t.Errorf("ring wrap west: %+v ok=%v", l, ok)
	}
	if _, ok := r.OutLink(0, North); ok {
		t.Error("ring has a north link")
	}
	if math.Abs(r.Links()[0].LengthCm-1.0) > 1e-12 {
		t.Errorf("ring hop length = %v, want 1.0", r.Links()[0].LengthCm)
	}
	if n := r.Neighbors(3); len(n) != 2 {
		t.Errorf("ring neighbors = %d, want 2", len(n))
	}
	if _, err := NewRing(2); err == nil {
		t.Error("accepted 2-tile ring")
	}
}

func TestGridAccessors(t *testing.T) {
	g, _ := NewMesh(5, 3, WithDieCm(1.5))
	if g.Width() != 5 || g.Height() != 3 {
		t.Errorf("Width/Height = %d/%d", g.Width(), g.Height())
	}
	if g.DieCm() != 1.5 {
		t.Errorf("DieCm = %v", g.DieCm())
	}
}

func TestRingLinkTo(t *testing.T) {
	r, _ := NewRing(5)
	if l, ok := r.LinkTo(0, 1); !ok || l.Dir != East {
		t.Errorf("LinkTo(0,1) = %+v, %v", l, ok)
	}
	if l, ok := r.LinkTo(0, 4); !ok || l.Dir != West {
		t.Errorf("LinkTo(0,4) = %+v, %v", l, ok)
	}
	if _, ok := r.LinkTo(0, 2); ok {
		t.Error("non-adjacent ring tiles linked")
	}
	if _, ok := r.LinkTo(9, 0); ok {
		t.Error("out-of-range ring LinkTo succeeded")
	}
	if r.Neighbors(TileID(-1)) != nil {
		t.Error("negative ring Neighbors non-nil")
	}
	if _, ok := r.OutLink(TileID(9), East); ok {
		t.Error("out-of-range ring OutLink succeeded")
	}
}

// TestNeighborsAllocationFree: every topology returns precomputed
// neighbor lists, so Neighbors allocates nothing. Each list holds the
// tile's surviving out-links in N, E, S, W order, and is full to
// capacity, so an append by a caller cannot write into another tile's
// list.
func TestNeighborsAllocationFree(t *testing.T) {
	mesh, _ := NewMesh(4, 3)
	torus, _ := NewTorus(2, 3)
	ring, _ := NewRing(5)
	deg, err := Degrade(mesh, [][2]TileID{{0, 1}, {1, 0}, {5, 9}})
	if err != nil {
		t.Fatal(err)
	}
	for _, top := range []Topology{mesh, torus, ring, deg} {
		n := top.NumTiles()
		for tile := TileID(0); int(tile) < n; tile++ {
			var want []Link
			for d := North; d <= West; d++ {
				if l, ok := top.OutLink(tile, d); ok {
					want = append(want, l)
				}
			}
			got := top.Neighbors(tile)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Neighbors(%d) = %v, want %v", top.Name(), tile, got, want)
			}
			if len(got) != cap(got) {
				t.Errorf("%s: Neighbors(%d) has len %d, cap %d", top.Name(), tile, len(got), cap(got))
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			for tile := TileID(0); int(tile) < n; tile++ {
				_ = top.Neighbors(tile)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Neighbors allocates %v times per pass over the tiles", top.Name(), allocs)
		}
	}
}
