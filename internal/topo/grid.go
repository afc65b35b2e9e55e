package topo

import (
	"fmt"
	"math"
)

// DefaultDieCm is the default die edge length in centimetres used to
// derive tile pitch and hence waveguide link lengths. A 2 cm x 2 cm die is
// the common assumption in the photonic NoC literature the paper builds on.
const DefaultDieCm = 2.0

// Kinds lists the built-in topology kinds the config layer can build.
func Kinds() []string { return []string{"mesh", "torus", "ring"} }

// Grid is a W x H direct topology, either a mesh (Wrap == false) or a
// folded torus (Wrap == true). Tiles are numbered row-major: tile (x, y)
// has ID y*W + x, with x growing eastward and y growing southward.
//
// Link lengths derive from the die size: a mesh hop spans one tile pitch;
// a folded torus places physically adjacent tiles two pitches apart in
// exchange for uniform wrap-free link lengths, so every torus hop spans
// two pitches — the standard equalized-layout assumption.
type Grid struct {
	name      string
	w, h      int
	wrap      bool
	dieCm     float64
	links     []Link
	outIdx    [][]int  // outIdx[tile][dir] = index into links, or -1
	neighbors [][]Link // neighbors[tile]: what Neighbors returns
	wrapCross int
}

// GridOption customizes grid construction.
type GridOption func(*gridConfig)

type gridConfig struct {
	dieCm     float64
	wrapCross int
}

// WithDieCm sets the die edge length in centimetres (default DefaultDieCm).
func WithDieCm(cm float64) GridOption {
	return func(c *gridConfig) { c.dieCm = cm }
}

// WithWrapCrossings assigns the given number of passive waveguide
// crossings to every link of a folded torus, modelling the layout cost of
// interleaved wrap wiring. Meshes ignore this option. Default 0.
func WithWrapCrossings(n int) GridOption {
	return func(c *gridConfig) { c.wrapCross = n }
}

// NewMesh returns a w x h mesh.
func NewMesh(w, h int, opts ...GridOption) (*Grid, error) {
	return newGrid(w, h, false, opts...)
}

// NewTorus returns a w x h folded torus.
func NewTorus(w, h int, opts ...GridOption) (*Grid, error) {
	return newGrid(w, h, true, opts...)
}

func newGrid(w, h int, wrap bool, opts ...GridOption) (*Grid, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("topo: grid needs at least 2x2 tiles, got %dx%d", w, h)
	}
	if w > math.MaxInt/h {
		return nil, fmt.Errorf("topo: a %dx%d grid has more tiles than an int counts", w, h)
	}
	cfg := gridConfig{dieCm: DefaultDieCm}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.dieCm <= 0 {
		return nil, fmt.Errorf("topo: die size must be positive, got %v cm", cfg.dieCm)
	}
	if cfg.wrapCross < 0 {
		return nil, fmt.Errorf("topo: wrap crossings must be >= 0, got %d", cfg.wrapCross)
	}
	kind := "mesh"
	if wrap {
		kind = "torus"
	}
	g := &Grid{
		name:      fmt.Sprintf("%s-%dx%d", kind, w, h),
		w:         w,
		h:         h,
		wrap:      wrap,
		dieCm:     cfg.dieCm,
		wrapCross: cfg.wrapCross,
	}
	// Tile pitch along the longer grid axis so the whole grid fits in
	// the die regardless of aspect ratio.
	longer := w
	if h > longer {
		longer = h
	}
	pitch := cfg.dieCm / float64(longer)
	hopLen := pitch
	crossings := 0
	if wrap {
		hopLen = 2 * pitch // folded-torus uniform hop length
		crossings = cfg.wrapCross
	}

	g.outIdx = make([][]int, w*h)
	for t := range g.outIdx {
		g.outIdx[t] = []int{-1, -1, -1, -1}
	}
	addLink := func(from TileID, d Direction, to TileID) {
		g.outIdx[from][d] = len(g.links)
		g.links = append(g.links, Link{
			From: from, To: to, Dir: d,
			LengthCm: hopLen, Crossings: crossings,
		})
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			from := g.mustTileAt(x, y)
			for _, d := range []Direction{North, East, South, West} {
				nx, ny, ok := g.step(x, y, d)
				if !ok {
					continue
				}
				addLink(from, d, g.mustTileAt(nx, ny))
			}
		}
	}
	g.neighbors = neighborLists(g.links, g.outIdx)
	return g, nil
}

// step returns the coordinates one hop from (x, y) in direction d,
// honouring wraparound for tori. ok is false for mesh edge violations.
func (g *Grid) step(x, y int, d Direction) (nx, ny int, ok bool) {
	nx, ny = x, y
	switch d {
	case North:
		ny--
	case South:
		ny++
	case East:
		nx++
	case West:
		nx--
	}
	if g.wrap {
		nx = (nx + g.w) % g.w
		ny = (ny + g.h) % g.h
		// A 2-wide torus would create duplicate links between the same
		// pair; that is fine topologically but we still return them so
		// both directions exist.
		return nx, ny, true
	}
	if nx < 0 || nx >= g.w || ny < 0 || ny >= g.h {
		return 0, 0, false
	}
	return nx, ny, true
}

func (g *Grid) mustTileAt(x, y int) TileID { return TileID(y*g.w + x) }

// Name returns e.g. "mesh-4x4" or "torus-6x6".
func (g *Grid) Name() string { return g.name }

// Width returns the number of columns.
func (g *Grid) Width() int { return g.w }

// Height returns the number of rows.
func (g *Grid) Height() int { return g.h }

// Wrap reports whether the grid is a torus.
func (g *Grid) Wrap() bool { return g.wrap }

// DieCm returns the die edge length in centimetres.
func (g *Grid) DieCm() float64 { return g.dieCm }

// NumTiles returns W*H.
func (g *Grid) NumTiles() int { return g.w * g.h }

// Coord returns the (x, y) grid coordinates of tile t.
func (g *Grid) Coord(t TileID) (x, y int) {
	return int(t) % g.w, int(t) / g.w
}

// TileAt returns the tile at grid coordinates (x, y).
func (g *Grid) TileAt(x, y int) (TileID, bool) {
	if x < 0 || x >= g.w || y < 0 || y >= g.h {
		return 0, false
	}
	return g.mustTileAt(x, y), true
}

// Links returns all directed links. Callers must not modify the slice.
func (g *Grid) Links() []Link { return g.links }

// OutLink returns the link leaving tile from in direction d.
func (g *Grid) OutLink(from TileID, d Direction) (Link, bool) {
	if from < 0 || int(from) >= len(g.outIdx) || !d.Valid() {
		return Link{}, false
	}
	idx := g.outIdx[from][d]
	if idx < 0 {
		return Link{}, false
	}
	return g.links[idx], true
}

// LinkTo returns the direct link between two adjacent tiles.
func (g *Grid) LinkTo(from, to TileID) (Link, bool) {
	if from < 0 || int(from) >= len(g.outIdx) {
		return Link{}, false
	}
	for _, idx := range g.outIdx[from] {
		if idx >= 0 && g.links[idx].To == to {
			return g.links[idx], true
		}
	}
	return Link{}, false
}

// Neighbors returns the links leaving tile from, in N, E, S, W order.
// Callers must not modify the slice.
func (g *Grid) Neighbors(from TileID) []Link {
	if from < 0 || int(from) >= len(g.neighbors) {
		return nil
	}
	return g.neighbors[from]
}

var _ Topology = (*Grid)(nil)
