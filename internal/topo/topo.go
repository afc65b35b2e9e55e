// Package topo implements the topology graph of the paper (Definition 2):
// how NoC tiles are connected by physical links. It provides the regular
// direct topologies used in the evaluation — 2-D mesh and (folded) torus —
// plus a ring for small experiments, and carries the physical link lengths
// needed by the insertion-loss model.
package topo

import "fmt"

// TileID identifies one tile (a processing element plus its optical
// router). IDs are dense in [0, NumTiles).
type TileID int

// Direction identifies the compass direction of a link as seen from its
// source tile. It matches the non-local port naming of 5-port optical
// routers.
type Direction uint8

const (
	North Direction = iota
	East
	South
	West
	numDirections
)

// String returns the compass name of the direction.
func (d Direction) String() string {
	switch d {
	case North:
		return "north"
	case East:
		return "east"
	case South:
		return "south"
	case West:
		return "west"
	default:
		return fmt.Sprintf("topo.Direction(%d)", uint8(d))
	}
}

// Valid reports whether d is one of the four compass directions.
func (d Direction) Valid() bool { return d < numDirections }

// Opposite returns the reverse direction (North <-> South, East <-> West).
func (d Direction) Opposite() Direction {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	default:
		return East
	}
}

// Link is a directed physical waveguide connection between two adjacent
// tiles. LengthCm feeds the propagation-loss model; Crossings is the
// number of passive waveguide crossings the link traverses in the chip
// layout (0 for a planar mesh; wrap links of a torus may be assigned a
// positive count to model layout-induced crossings).
type Link struct {
	From, To  TileID
	Dir       Direction
	LengthCm  float64
	Crossings int
}

// Topology is the abstract tile-interconnection graph consumed by the
// network model. Implementations must be immutable after construction.
type Topology interface {
	// Name identifies the topology instance, e.g. "mesh-4x4".
	Name() string
	// NumTiles returns the number of tiles (size(T) in Eq. 2).
	NumTiles() int
	// Links returns every directed link. The slice is shared; callers
	// must not modify it.
	Links() []Link
	// OutLink returns the link leaving tile from in direction d.
	OutLink(from TileID, d Direction) (Link, bool)
	// LinkTo returns the direct link from tile from to tile to.
	LinkTo(from, to TileID) (Link, bool)
	// Neighbors returns the links leaving tile from, in direction order.
	// The slice is shared; callers must not modify it.
	Neighbors(from TileID) []Link
}

// neighborLists returns every tile's out-links in direction order, read
// from outIdx (tile -> direction -> index into links, or -1) once at
// construction, so Neighbors allocates nothing. The lists are carved from
// one slab with len == cap, so an append by a caller reallocates instead
// of writing into the next tile's list.
func neighborLists(links []Link, outIdx [][]int) [][]Link {
	slab := make([]Link, 0, len(links))
	lists := make([][]Link, len(outIdx))
	for t, idx := range outIdx {
		first := len(slab)
		for _, i := range idx {
			if i >= 0 {
				slab = append(slab, links[i])
			}
		}
		lists[t] = slab[first:len(slab):len(slab)]
	}
	return lists
}

// Validate performs structural sanity checks shared by all topologies:
// consistent endpoints, positive lengths, reciprocal links.
func Validate(t Topology) error {
	n := t.NumTiles()
	if n <= 0 {
		return fmt.Errorf("topo: %s: no tiles", t.Name())
	}
	for _, l := range t.Links() {
		if l.From < 0 || int(l.From) >= n || l.To < 0 || int(l.To) >= n {
			return fmt.Errorf("topo: %s: link %v has out-of-range endpoint", t.Name(), l)
		}
		if l.From == l.To {
			return fmt.Errorf("topo: %s: self-link on tile %d", t.Name(), l.From)
		}
		if l.LengthCm <= 0 {
			return fmt.Errorf("topo: %s: link %v has non-positive length", t.Name(), l)
		}
		if l.Crossings < 0 {
			return fmt.Errorf("topo: %s: link %v has negative crossings", t.Name(), l)
		}
		if !l.Dir.Valid() {
			return fmt.Errorf("topo: %s: link %v has invalid direction", t.Name(), l)
		}
		back, ok := t.OutLink(l.To, l.Dir.Opposite())
		if !ok || back.To != l.From {
			return fmt.Errorf("topo: %s: link %v has no reverse link", t.Name(), l)
		}
	}
	return nil
}
