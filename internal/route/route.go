// Package route implements the routing algorithms that select the tile
// path of each communication. PhoNoCMap targets direct topologies with
// dimension-order routing (Section II-A of the paper); this package
// provides XY and YX dimension-order routing for meshes, dimension-order
// routing with minimal wraparound for tori, and a generic BFS router for
// arbitrary topologies, all behind a pluggable interface.
package route

import (
	"fmt"

	"phonocmap/internal/topo"
)

// Algorithm computes the sequence of links a communication traverses.
// Implementations must be deterministic: the same (topology, src, dst)
// always produces the same path, a prerequisite of the paper's static
// worst-case analysis.
type Algorithm interface {
	// Name identifies the algorithm, e.g. "xy".
	Name() string
	// Route returns the links from src to dst in traversal order. An
	// empty path is returned when src == dst. Route fails if the
	// topology is unsupported or the destination is unreachable.
	Route(t topo.Topology, src, dst topo.TileID) ([]topo.Link, error)
}

// Check verifies that a path is well-formed: it starts at src, ends at
// dst, and every link continues where the previous one ended.
func Check(src, dst topo.TileID, path []topo.Link) error {
	at := src
	for i, l := range path {
		if l.From != at {
			return fmt.Errorf("route: hop %d starts at %d, expected %d", i, l.From, at)
		}
		at = l.To
	}
	if at != dst {
		return fmt.Errorf("route: path ends at %d, want %d", at, dst)
	}
	return nil
}

// gridOf extracts the concrete grid from a topology, for the
// dimension-order algorithms that need coordinates.
func gridOf(t topo.Topology, algo string) (*topo.Grid, error) {
	g, ok := t.(*topo.Grid)
	if !ok {
		return nil, fmt.Errorf("route: %s routing requires a grid topology, got %s", algo, t.Name())
	}
	return g, nil
}

// XY is dimension-order routing: route fully along the X axis first,
// then along Y. On a mesh, movement is monotonic; on a torus, each axis
// takes the minimal wrap-aware direction (ties broken toward East/South
// so routes stay deterministic). XY is deadlock-free on meshes and is the
// algorithm assumed by the paper's Crux-based architectures.
type XY struct{}

// Name returns "xy".
func (XY) Name() string { return "xy" }

// Route implements Algorithm.
func (XY) Route(t topo.Topology, src, dst topo.TileID) ([]topo.Link, error) {
	g, err := gridOf(t, "xy")
	if err != nil {
		return nil, err
	}
	return dimensionOrder(g, src, dst, true)
}

// YX is dimension-order routing that resolves the Y axis before X.
// Included to study routing sensitivity; it exercises the turn set that
// XY never uses.
type YX struct{}

// Name returns "yx".
func (YX) Name() string { return "yx" }

// Route implements Algorithm.
func (YX) Route(t topo.Topology, src, dst topo.TileID) ([]topo.Link, error) {
	g, err := gridOf(t, "yx")
	if err != nil {
		return nil, err
	}
	return dimensionOrder(g, src, dst, false)
}

// axisSteps returns how many hops to take along one axis and in which
// grid direction, choosing the shorter way around for tori. On a tie the
// positive direction (East or South) wins.
func axisSteps(from, to, size int, wrap bool, pos, neg topo.Direction) (int, topo.Direction) {
	if from == to {
		return 0, pos
	}
	if !wrap {
		if to > from {
			return to - from, pos
		}
		return from - to, neg
	}
	fwd := ((to - from) + size) % size
	bwd := ((from - to) + size) % size
	if fwd <= bwd {
		return fwd, pos
	}
	return bwd, neg
}

func dimensionOrder(g *topo.Grid, src, dst topo.TileID, xFirst bool) ([]topo.Link, error) {
	n := g.NumTiles()
	if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return nil, fmt.Errorf("route: tile out of range: src=%d dst=%d n=%d", src, dst, n)
	}
	if src == dst {
		return nil, nil
	}
	sx, sy := g.Coord(src)
	dx, dy := g.Coord(dst)
	stepsX, dirX := axisSteps(sx, dx, g.Width(), g.Wrap(), topo.East, topo.West)
	stepsY, dirY := axisSteps(sy, dy, g.Height(), g.Wrap(), topo.South, topo.North)

	type leg struct {
		steps int
		dir   topo.Direction
	}
	legs := []leg{{stepsX, dirX}, {stepsY, dirY}}
	if !xFirst {
		legs[0], legs[1] = legs[1], legs[0]
	}

	path := make([]topo.Link, 0, stepsX+stepsY)
	at := src
	for _, lg := range legs {
		for s := 0; s < lg.steps; s++ {
			l, ok := g.OutLink(at, lg.dir)
			if !ok {
				return nil, fmt.Errorf("route: no %v link at tile %d on %s", lg.dir, at, g.Name())
			}
			path = append(path, l)
			at = l.To
		}
	}
	if at != dst {
		return nil, fmt.Errorf("route: dimension-order routing ended at %d, want %d", at, dst)
	}
	return path, nil
}

// BFS routes along a shortest path found by breadth-first search with
// deterministic direction-order tie breaking. It works on any Topology
// and serves as the fallback for custom topologies such as rings.
type BFS struct{}

// Name returns "bfs".
func (BFS) Name() string { return "bfs" }

// Route implements Algorithm.
func (BFS) Route(t topo.Topology, src, dst topo.TileID) ([]topo.Link, error) {
	n := t.NumTiles()
	if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return nil, fmt.Errorf("route: tile out of range: src=%d dst=%d n=%d", src, dst, n)
	}
	if src == dst {
		return nil, nil
	}
	tiles := make([]bfsTile, n)
	tiles[src].seen = true
	tiles[0].queue = src
	for head, tail := 0, 1; head < tail; head++ {
		for _, l := range t.Neighbors(tiles[head].queue) {
			if tiles[l.To].seen {
				continue
			}
			tiles[l.To].seen = true
			tiles[l.To].prev = l
			if l.To == dst {
				return reconstruct(tiles, src, dst), nil
			}
			tiles[tail].queue = l.To
			tail++
		}
	}
	return nil, fmt.Errorf("route: %d unreachable from %d on %s", dst, src, t.Name())
}

// bfsTile is BFS's scratch for one tile, all of it in one block per
// routed pair: the link the search reached the tile by, whether it was
// reached, and the queue slot at the tile's index (each tile is queued
// at most once, so n slots suffice).
type bfsTile struct {
	prev  topo.Link
	seen  bool
	queue topo.TileID
}

// reconstruct walks the BFS tree back from dst twice: once to count the
// hops, once to fill the path from its end.
func reconstruct(tiles []bfsTile, src, dst topo.TileID) []topo.Link {
	hops := 0
	for at := dst; at != src; at = tiles[at].prev.From {
		hops++
	}
	path := make([]topo.Link, hops)
	for at := dst; at != src; at = tiles[at].prev.From {
		hops--
		path[hops] = tiles[at].prev
	}
	return path
}

// ByName returns the built-in algorithm with the given name.
func ByName(name string) (Algorithm, error) {
	switch name {
	case "xy":
		return XY{}, nil
	case "yx":
		return YX{}, nil
	case "bfs":
		return BFS{}, nil
	default:
		return nil, fmt.Errorf("route: unknown algorithm %q (have xy, yx, bfs)", name)
	}
}
