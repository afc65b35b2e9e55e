// Package core implements the paper's primary contribution: the mapping
// problem formulation (Section II-D.1, Eqs. 2-6), its evaluation against
// the physical-layer models, the search-algorithm contract, and the
// design space exploration engine that orchestrates optimization runs.
package core

import (
	"fmt"
	"math/rand"

	"phonocmap/internal/topo"
)

// Mapping is the mapping function Omega: C -> T of the paper. Mapping[i]
// is the tile hosting task i. A valid mapping is injective (Eq. 6: every
// tile hosts at most one task) and total (Eq. 5: every task is placed).
type Mapping []topo.TileID

// Clone returns an independent copy.
func (m Mapping) Clone() Mapping {
	c := make(Mapping, len(m))
	copy(c, m)
	return c
}

// Equal reports whether two mappings are identical.
func (m Mapping) Equal(o Mapping) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// Validate checks Eqs. 5 and 6 against a network of numTiles tiles.
func (m Mapping) Validate(numTiles int) error {
	return m.validate(numTiles, make([]bool, numTiles))
}

// validate is Validate with caller-owned scratch (len >= numTiles,
// cleared here) so per-evaluation validation on the hot path does not
// allocate.
func (m Mapping) validate(numTiles int, seen []bool) error {
	if len(m) == 0 {
		return fmt.Errorf("core: empty mapping")
	}
	if len(m) > numTiles {
		return fmt.Errorf("core: %d tasks exceed %d tiles (Eq. 2 violated)", len(m), numTiles)
	}
	seen = seen[:numTiles]
	for i := range seen {
		seen[i] = false
	}
	for task, tile := range m {
		if tile < 0 || int(tile) >= numTiles {
			return fmt.Errorf("core: task %d mapped to invalid tile %d", task, tile)
		}
		if seen[tile] {
			return fmt.Errorf("core: tile %d hosts more than one task (Eq. 6 violated)", tile)
		}
		seen[tile] = true
	}
	return nil
}

// RandomMapping draws a uniform injective mapping of numTasks tasks onto
// numTiles tiles using the given source of randomness.
func RandomMapping(rng *rand.Rand, numTasks, numTiles int) (Mapping, error) {
	if numTasks < 1 {
		return nil, fmt.Errorf("core: need at least one task, got %d", numTasks)
	}
	if numTasks > numTiles {
		return nil, fmt.Errorf("core: %d tasks do not fit on %d tiles (Eq. 2)", numTasks, numTiles)
	}
	m := make(Mapping, numTiles)
	DrawPerm(rng, m)
	return m[:numTasks:numTasks], nil
}

// DrawPerm fills buf with the permutation rng.Perm(len(buf)) would
// return, drawing the same Intn sequence, without allocating. A random
// mapping is its first numTasks entries.
func DrawPerm(rng *rand.Rand, buf []topo.TileID) {
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = topo.TileID(i)
	}
}

// IdentityMapping places task i on tile i — the naive baseline layout.
func IdentityMapping(numTasks int) Mapping {
	m := make(Mapping, numTasks)
	for i := range m {
		m[i] = topo.TileID(i)
	}
	return m
}

// Swap exchanges the tiles of two tasks in place. Swapping a task with
// itself is a no-op. This is the primitive move of the paper's R-PBLA and
// of the GA mutation operator; it preserves injectivity by construction.
func (m Mapping) Swap(taskA, taskB int) {
	m[taskA], m[taskB] = m[taskB], m[taskA]
}

// MoveTo relocates a task to a tile. The caller must guarantee the tile
// is currently free, or injectivity breaks; use with FreeTiles.
func (m Mapping) MoveTo(task int, tile topo.TileID) {
	m[task] = tile
}

// FreeTiles appends to dst the tiles not used by the mapping, in
// ascending order, and returns the extended slice.
func (m Mapping) FreeTiles(dst []topo.TileID, numTiles int) []topo.TileID {
	used := make([]bool, numTiles)
	for _, t := range m {
		if t >= 0 && int(t) < numTiles {
			used[t] = true
		}
	}
	for t := 0; t < numTiles; t++ {
		if !used[t] {
			dst = append(dst, topo.TileID(t))
		}
	}
	return dst
}
