package topo

import "fmt"

// Ring is a 1-D cycle of n tiles. Tile i connects eastward to tile
// (i+1) mod n and westward to (i-1+n) mod n. Rings are provided for small
// experiments and for exercising custom-topology support; the paper's
// evaluation uses meshes and tori.
type Ring struct {
	name      string
	n         int
	links     []Link
	outIdx    [][]int
	neighbors [][]Link // neighbors[tile]: what Neighbors returns
}

// NewRing returns a ring of n tiles laid out on the perimeter of a die
// with the given edge length (centimetres); hop length is the perimeter
// divided by n.
func NewRing(n int, opts ...GridOption) (*Ring, error) {
	if n < 3 {
		return nil, fmt.Errorf("topo: ring needs at least 3 tiles, got %d", n)
	}
	cfg := gridConfig{dieCm: DefaultDieCm}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.dieCm <= 0 {
		return nil, fmt.Errorf("topo: die size must be positive, got %v cm", cfg.dieCm)
	}
	hopLen := 4 * cfg.dieCm / float64(n)
	r := &Ring{name: fmt.Sprintf("ring-%d", n), n: n}
	r.outIdx = make([][]int, n)
	for t := range r.outIdx {
		r.outIdx[t] = []int{-1, -1, -1, -1}
	}
	for i := 0; i < n; i++ {
		from := TileID(i)
		east := TileID((i + 1) % n)
		west := TileID((i - 1 + n) % n)
		r.outIdx[from][East] = len(r.links)
		r.links = append(r.links, Link{From: from, To: east, Dir: East, LengthCm: hopLen})
		r.outIdx[from][West] = len(r.links)
		r.links = append(r.links, Link{From: from, To: west, Dir: West, LengthCm: hopLen})
	}
	r.neighbors = neighborLists(r.links, r.outIdx)
	return r, nil
}

// Name returns e.g. "ring-8".
func (r *Ring) Name() string { return r.name }

// NumTiles returns the tile count.
func (r *Ring) NumTiles() int { return r.n }

// Links returns all directed links. Callers must not modify the slice.
func (r *Ring) Links() []Link { return r.links }

// OutLink returns the link leaving tile from in direction d (East or West).
func (r *Ring) OutLink(from TileID, d Direction) (Link, bool) {
	if from < 0 || int(from) >= r.n || !d.Valid() {
		return Link{}, false
	}
	idx := r.outIdx[from][d]
	if idx < 0 {
		return Link{}, false
	}
	return r.links[idx], true
}

// LinkTo returns the direct link between two adjacent tiles.
func (r *Ring) LinkTo(from, to TileID) (Link, bool) {
	if from < 0 || int(from) >= r.n {
		return Link{}, false
	}
	for _, idx := range r.outIdx[from] {
		if idx >= 0 && r.links[idx].To == to {
			return r.links[idx], true
		}
	}
	return Link{}, false
}

// Neighbors returns the links leaving tile from, East before West.
// Callers must not modify the slice.
func (r *Ring) Neighbors(from TileID) []Link {
	if from < 0 || int(from) >= r.n {
		return nil
	}
	return r.neighbors[from]
}

var _ Topology = (*Ring)(nil)
