package topo

import "fmt"

// Degraded wraps a topology with a set of failed directed links removed,
// for fault-tolerance studies: how much worse do a mapping's worst-case
// metrics get when a waveguide segment breaks and traffic detours?
//
// Dimension-order routing algorithms require the full grid, so degraded
// topologies are used with BFS routing, which finds minimal detours
// around the failures. Failing one direction of a link models a broken
// or decommissioned waveguide lane; fail both directions for a full cut.
type Degraded struct {
	base   Topology
	name   string
	failed map[[2]TileID]bool
	links  []Link
	// neighbors[tile] is what Neighbors returns: the base's list for the
	// tile without the failed links, carved from one slab.
	neighbors [][]Link
}

// Degrade removes the given directed links (from -> to pairs) from the
// topology. It fails when a named link does not exist. The result may
// disconnect tiles, even isolate one; routing reports a pair it cannot
// reach.
func Degrade(base Topology, failures [][2]TileID) (*Degraded, error) {
	d := &Degraded{
		base:   base,
		name:   base.Name() + "-degraded",
		failed: make(map[[2]TileID]bool, len(failures)),
	}
	for _, f := range failures {
		if _, ok := base.LinkTo(f[0], f[1]); !ok {
			return nil, fmt.Errorf("topo: cannot fail nonexistent link %d->%d on %s", f[0], f[1], base.Name())
		}
		d.failed[f] = true
	}
	for _, l := range base.Links() {
		if !d.failed[[2]TileID{l.From, l.To}] {
			d.links = append(d.links, l)
		}
	}
	slab := make([]Link, 0, len(d.links))
	d.neighbors = make([][]Link, base.NumTiles())
	for t := range d.neighbors {
		first := len(slab)
		for _, l := range base.Neighbors(TileID(t)) {
			if !d.failed[[2]TileID{l.From, l.To}] {
				slab = append(slab, l)
			}
		}
		d.neighbors[t] = slab[first:len(slab):len(slab)]
	}
	return d, nil
}

// Name returns the base name with a "-degraded" suffix.
func (d *Degraded) Name() string { return d.name }

// NumTiles returns the tile count of the base topology.
func (d *Degraded) NumTiles() int { return d.base.NumTiles() }

// Links returns the surviving links. Callers must not modify the slice.
func (d *Degraded) Links() []Link { return d.links }

// OutLink returns the surviving link leaving tile from in direction dir.
func (d *Degraded) OutLink(from TileID, dir Direction) (Link, bool) {
	l, ok := d.base.OutLink(from, dir)
	if !ok || d.failed[[2]TileID{l.From, l.To}] {
		return Link{}, false
	}
	return l, true
}

// LinkTo returns the surviving direct link between two tiles.
func (d *Degraded) LinkTo(from, to TileID) (Link, bool) {
	if d.failed[[2]TileID{from, to}] {
		return Link{}, false
	}
	return d.base.LinkTo(from, to)
}

// Neighbors returns the surviving links leaving tile from, in the base's
// order. Callers must not modify the slice.
func (d *Degraded) Neighbors(from TileID) []Link {
	if from < 0 || int(from) >= len(d.neighbors) {
		return nil
	}
	return d.neighbors[from]
}

// FailedCount returns the number of removed directed links.
func (d *Degraded) FailedCount() int { return len(d.failed) }

var _ Topology = (*Degraded)(nil)
