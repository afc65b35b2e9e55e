package analysis

import (
	"fmt"
	"math"
	"time"

	"phonocmap/internal/network"
	"phonocmap/internal/obs"
	"phonocmap/internal/topo"
)

// PathTable is the second evaluation engine: a network's path-pair table.
// For every ordered pair (p, q) of the network's tile-pair paths it holds
// the quantized noise path q injects into path p, summed over the
// elements the two share, and the pair's conflict count. These are the
// pair kernel's own terms (pairOf and noise), grouped by path pair
// instead of by element, so integer sums over the table land on the
// kernel's integers: a whole-set evaluation of m communications becomes
// m² noise reads (sum), a delta of |Δ| of them about 3·|Δ|·m (delta).
//
// Paths are indexed src*n+dst over the network's n tiles. The conflict
// half is symmetric and counts 2 per contending shared element, the
// kernel's count for one pair of co-located steps (one per victim). The
// diagonal holds what two communications on one path give each other:
// no noise, and 2 conflicts per step, since every step contends with its
// twin. A table is immutable once built and safe for concurrent use.
type PathTable struct {
	nw *network.Network
	// stride is the number of path indices, n*n; row p of both halves
	// is [p*stride, (p+1)*stride).
	stride int
	noise  []int64
	conf   []uint8
}

// tableBuilds and tableBuildNanos count path-table builds and their wall
// time, process-wide; the service exposes them as
// phonocmap_path_table_builds_total and
// phonocmap_path_table_build_seconds_total.
var (
	tableBuilds     = obs.NewCounter()
	tableBuildNanos = obs.NewCounter()
)

// TableBuildsTotal returns the number of path tables built since process
// start.
func TableBuildsTotal() int64 { return tableBuilds.Value() }

// TableBuildSecondsTotal returns the wall time spent on those builds, in
// seconds.
func TableBuildSecondsTotal() float64 { return time.Duration(tableBuildNanos.Value()).Seconds() }

// tableOrErr is what TableOf memoizes on a network.
type tableOrErr struct {
	t   *PathTable
	err error
}

// TableOf returns nw's path table, building it on the first call for nw:
// one table per network object, built by whichever caller asks first
// (concurrent callers wait for it) and freed with the network. The table
// holds 9 bytes per pair of path indices, (n²)² pairs for n tiles, so
// callers keep it to small networks.
func TableOf(nw *network.Network) (*PathTable, error) {
	r := nw.Memo(func(nw *network.Network) any {
		t, err := newPathTable(nw)
		return tableOrErr{t, err}
	}).(tableOrErr)
	return r.t, r.err
}

// TableBytes returns the size of nw's path table, built or not: an
// int64 noise term and a uint8 conflict count for each of the (n²)²
// pairs of path indices of n tiles.
func TableBytes(nw *network.Network) int64 {
	stride := int64(nw.NumTiles()) * int64(nw.NumTiles())
	return stride * stride * 9
}

// newPathTable seats every path of the network in exactly sized
// occupancy lists, one slab for all of them, and runs the pair kernel's
// loop over each list, adding each pair's terms to the pair's two
// entries. It rests on the invariant the class-run walk rests on: no
// path crosses an element twice, so two entries of one list belong to
// two different paths.
func newPathTable(nw *network.Network) (*PathTable, error) {
	//phonocmap:wallclock feeds only the process-wide table build-time counter, never a score
	start := time.Now()
	n := nw.NumTiles()
	stride := n * n
	// first[g] is where element g's list starts in the slab, first[g+1]
	// where it ends.
	first := make([]int32, nw.NumElements()+1)
	maxSteps := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if p := tablePath(nw, src, dst); p != nil {
				for si := range p.Steps {
					first[p.Steps[si].Node+1]++
				}
				maxSteps = max(maxSteps, len(p.Steps))
			}
		}
	}
	// The largest conflict count is the diagonal's, 2 per step.
	if 2*maxSteps > math.MaxUint8 {
		return nil, fmt.Errorf("analysis: %s has a path of %d steps; a path table holds conflict counts up to %d", nw, maxSteps, math.MaxUint8)
	}
	for g := 1; g < len(first); g++ {
		first[g] += first[g-1]
	}
	slab := make([]entry, first[len(first)-1])
	next := make([]int32, len(first)-1)
	copy(next, first)
	t := &PathTable{nw: nw, stride: stride, noise: make([]int64, stride*stride), conf: make([]uint8, stride*stride)}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			p := tablePath(nw, src, dst)
			if p == nil {
				continue
			}
			pi := src*n + dst
			for si := range p.Steps {
				g := p.Steps[si].Node
				slab[next[g]] = entryOf(pi, &p.Steps[si])
				next[g]++
			}
			t.conf[pi*stride+pi] = uint8(2 * len(p.Steps))
		}
	}
	o := occupancy{leak: leakCoeffs(nw.Params())}
	for g := 0; g+1 < len(first); g++ {
		occ := slab[first[g]:first[g+1]]
		for i := 1; i < len(occ); i++ {
			b := &occ[i]
			for j := range occ[:i] {
				a := &occ[j]
				ab, ba := int(a.comm)*stride+int(b.comm), int(b.comm)*stride+int(a.comm)
				pr := pairOf(a.class, b.class)
				t.conf[ab] += pr & contends
				t.conf[ba] += pr & contends
				if pr&leaksIntoFirst != 0 {
					t.noise[ab] += o.noise(a, b)
				}
				if pr&leaksIntoSecond != 0 {
					t.noise[ba] += o.noise(b, a)
				}
			}
		}
	}
	tableBuilds.Inc()
	//phonocmap:wallclock the elapsed time only feeds the table build-time counter
	tableBuildNanos.Add(int64(time.Since(start)))
	return t, nil
}

// tablePath is the network's path from src to dst, or nil for the
// diagonal and for a pair a pair-restricted build left out.
func tablePath(nw *network.Network, src, dst int) *network.Path {
	if src == dst {
		return nil
	}
	return nw.Path(topo.TileID(src), topo.TileID(dst))
}

// sum is the table engine's whole-set evaluation: each victim's noise
// is its row summed over the paths of the set, including its own column,
// whose diagonal entry adds no noise. Conflicts are symmetric, so each
// pair's count is read once, from the earlier communication's row. acc
// receives every victim's noise.
//
//phonocmap:noalloc
func (t *PathTable) sum(idx []int32, acc []int64) (conflicts int) {
	for i, p := range idx {
		noise, conf := t.row(p)
		var n int64
		for _, q := range idx {
			n += noise[q]
		}
		acc[i] = n
		for _, q := range idx[i+1:] {
			conflicts += int(conf[q])
		}
	}
	return conflicts
}

// row returns path p's noise and conflict rows.
func (t *PathTable) row(p int32) ([]int64, []uint8) {
	lo := int(p) * t.stride
	return t.noise[lo : lo+t.stride], t.conf[lo : lo+t.stride]
}

// delta moves a set from the old paths of the changed communications to
// their new ones in idx, patching acc and returning the change in
// conflicts. changed lists the changed communications, old their
// previous paths in the same order, and mark flags them. Each unchanged
// victim swaps the changed communications' old columns for their new
// ones; each pair of two changed communications trades its old conflict
// count for its new one, once; and each changed victim's noise is
// summed afresh from its new row.
//
//phonocmap:noalloc
func (t *PathTable) delta(idx []int32, acc []int64, changed []int, old []int32, mark []bool) (dconf int) {
	for v, p := range idx {
		if mark[v] {
			continue
		}
		noise, conf := t.row(p)
		var dn int64
		dc := 0
		for k, c := range changed {
			q, o := idx[c], old[k]
			dn += noise[q] - noise[o]
			dc += int(conf[q]) - int(conf[o])
		}
		acc[v] += dn
		dconf += dc
	}
	for k, c := range changed {
		_, confNew := t.row(idx[c])
		_, confOld := t.row(old[k])
		for l := k + 1; l < len(changed); l++ {
			dconf += int(confNew[idx[changed[l]]]) - int(confOld[old[l]])
		}
	}
	for _, c := range changed {
		noise, _ := t.row(idx[c])
		var n int64
		for _, q := range idx {
			n += noise[q]
		}
		acc[c] = n
	}
	return dconf
}
