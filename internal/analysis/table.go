package analysis

import (
	"fmt"
	"math"
	"time"
	"unsafe"

	"phonocmap/internal/network"
	"phonocmap/internal/obs"
	"phonocmap/internal/topo"
)

// PathTable is the second evaluation engine: a network's path-pair table.
// For every pair (p, q) of the network's tile-pair paths it holds the
// quantized noise each path injects into the other, summed over the
// elements the two share, and the pair's conflict count. These are the
// pair kernel's own terms (pairOf and noise), grouped by path pair
// instead of by element, so integer sums over the table land on the
// kernel's integers: a whole-set evaluation of m communications becomes
// m² table reads on the dense layout and m(m−1)/2 on the compact one,
// which reads the set in path-index order (sumCompact), and a delta of
// |Δ| of them about 3·|Δ|·m reads on the dense layout and 2·|Δ|·m on the
// compact one (delta).
//
// Paths are indexed src*n+dst over the network's n tiles. The conflict
// count is symmetric and counts 2 per contending shared element, the
// kernel's count for one pair of co-located steps (one per victim). The
// diagonal holds what two communications on one path give each other:
// no noise, and 2 conflicts per step, since every step contends with its
// twin. One fill builds either layout below (fill), and Bytes reads a
// built table's size off its slices. A table is immutable once built
// and safe for concurrent use.
//
// A table has one of two layouts, chosen by the network's tile count:
//
//   - dense, up to denseMaxTiles tiles: for every ordered pair, an int64
//     noise term and a uint8 conflict count, 9 bytes per pair and one
//     load per read (0.59 MB on a 4×4 network);
//   - compact, above it: one uint16 code per unordered pair p ≤ q, in a
//     packed upper triangle, indexing a dictionary of the network's
//     distinct pair terms. A pair that shares no element has code 0 and
//     equal terms share a code, so a 6×6 table takes 1.8–2.3 MB instead
//     of a dense 15.1 MB, at the price of a dependent load per read.
//
// The selection is by size because each layout wins on one side of it:
// on 4×4 networks, where a dense table (0.59 MB) already sits in cache, a
// compact one took 1.16–1.18× its time for full evaluations and 1.7–2.9×
// for swaps (8 rounds of the root package's benchmarks), while on 5×5
// networks the compact one was already faster (BenchmarkFig3EvalWavelet
// 0.87×, 9 of 10 rounds), and above 16 tiles the compact layout, 5.7–8.4×
// smaller, is what lets tables stay resident across sweeps.
type PathTable struct {
	nw *network.Network
	// stride is the number of path indices, n*n.
	stride int
	// The dense layout: row p of both halves is [p*stride, (p+1)*stride),
	// and noise[p*stride+q] is what q injects into p.
	noise []int64
	conf  []uint8
	// The compact layout: the term of paths p ≤ q is
	// terms[codes[off[p]+q]]; row p of the triangle starts at off[p]+p.
	codes []uint16
	off   []int32
	terms []term
}

// term is one unordered path pair's entry in a compact table: noise[0]
// is what the higher path index injects into the lower one, noise[1] the
// reverse, and conf the pair's conflicts. Code 0 is the all-zero pair.
type term struct {
	noise [2]int64
	conf  int64
}

// denseMaxTiles is the largest network, in tiles, whose table takes the
// dense layout (see PathTable).
const denseMaxTiles = 16

// maxTerms bounds a compact table's dictionary: codes are uint16, so a
// network with more distinct pair terms than that gets no table
// (newPathTable returns an error). The Table II networks stay well below
// it: 9,300 and 1,877 terms on the 5×5 Crux/XY mesh and torus, 24,431 and
// 5,015 on the 6×6.
const maxTerms = math.MaxUint16 + 1

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
// (concurrent callers wait for it) and freed with the network.
func TableOf(nw *network.Network) (*PathTable, error) {
	r := nw.Memo(func(nw *network.Network) any {
		t, err := newPathTable(nw, nw.NumTiles() <= denseMaxTiles)
		return tableOrErr{t, err}
	}).(tableOrErr)
	return r.t, r.err
}

// Bytes returns the memory the table takes, read off its slices: 9 bytes
// per ordered pair of path indices on the dense layout; on the compact
// one, 2 bytes per unordered pair, 4 per path index and 24 per
// dictionary term.
func (t *PathTable) Bytes() int64 {
	return int64(len(t.noise))*8 + int64(len(t.conf)) +
		int64(len(t.codes))*2 + int64(len(t.off))*4 + int64(len(t.terms))*int64(unsafe.Sizeof(term{}))
}

// newPathTable seats every path of the network in exactly sized
// occupancy lists, one slab for all of them, and fills the dense or the
// compact layout from them with the pair kernel's terms (fill). It rests
// on the invariant the class-run walk rests on: no path crosses an
// element twice, so two entries of one list belong to two different
// paths.
func newPathTable(nw *network.Network, dense bool) (*PathTable, error) {
	//phonocmap:wallclock feeds only the process-wide table build-time counter, never a score
	start := time.Now()
	n := nw.NumTiles()
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
	// The largest dense conflict count is the diagonal's, 2 per step.
	if dense && 2*maxSteps > math.MaxUint8 {
		return nil, fmt.Errorf("analysis: %s has a path of %d steps; a path table holds conflict counts up to %d", nw, maxSteps, math.MaxUint8)
	}
	for g := 1; g < len(first); g++ {
		first[g] += first[g-1]
	}
	// Paths enter the slab src-major, in ascending path index, so each
	// element's list holds its paths in ascending index.
	slab := make([]entry, first[len(first)-1])
	next := make([]int32, len(first)-1)
	copy(next, first)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			p := tablePath(nw, src, dst)
			if p == nil {
				continue
			}
			for si := range p.Steps {
				g := p.Steps[si].Node
				slab[next[g]] = entryOf(src*n+dst, &p.Steps[si])
				next[g]++
			}
		}
	}
	stride := n * n
	t := &PathTable{nw: nw, stride: stride}
	if dense {
		t.noise, t.conf = make([]int64, stride*stride), make([]uint8, stride*stride)
	} else {
		t.off = make([]int32, stride)
		size := 0
		for p := range t.off {
			t.off[p] = int32(size - p)
			size += stride - p
		}
		t.codes = make([]uint16, size)
	}
	copy(next, first)
	if err := t.fill(slab, first, next); err != nil {
		return nil, err
	}
	tableBuilds.Inc()
	//phonocmap:wallclock the elapsed time only feeds the table build-time counter
	tableBuildNanos.Add(int64(time.Since(start)))
	return t, nil
}

// fill fills either layout victim-major. For each path p, in ascending
// index, it walks the lists of p's elements from p's own entry, which
// at[g] points at (at starts as a copy of first and steps past each
// entry as its path is filled): a list holds its paths in ascending
// index, so the entries after p's are exactly the higher paths. Each
// pair that leaks or contends adds both directions and its conflicts to
// a scratch row of terms. Then the row's nonzero terms and p's diagonal
// are stored, in both halves of the dense layout or coded through the
// compact layout's dictionary, and the row is cleared.
func (t *PathTable) fill(slab []entry, first, at []int32) error {
	n, stride := t.nw.NumTiles(), t.stride
	o := occupancy{leak: leakCoeffs(t.nw.Params())}
	var d termDict
	if t.codes != nil {
		d = termDict{terms: make([]term, 1, maxTerms), slots: make([]uint16, 2*maxTerms)}
	}
	row := make([]term, stride)
	for pi := 0; pi < stride; pi++ {
		p := tablePath(t.nw, pi/n, pi%n)
		if p == nil {
			continue
		}
		for si := range p.Steps {
			g := p.Steps[si].Node
			a := &slab[at[g]]
			at[g]++
			higher := slab[at[g]:first[g+1]]
			for j := range higher {
				b := &higher[j]
				pr := pairOf(a.class, b.class)
				if pr == 0 {
					continue
				}
				x := &row[b.comm]
				x.conf += int64(pr & contends)
				if pr&leaksIntoFirst != 0 {
					x.noise[0] += o.noise(a, b)
				}
				if pr&leaksIntoSecond != 0 {
					x.noise[1] += o.noise(b, a)
				}
			}
		}
		row[pi] = term{conf: int64(2 * len(p.Steps))}
		for q := pi; q < stride; q++ {
			x := row[q]
			if x == (term{}) {
				continue
			}
			row[q] = term{}
			if t.codes == nil {
				pq, qp := pi*stride+q, q*stride+pi
				t.noise[pq], t.noise[qp] = x.noise[0], x.noise[1]
				t.conf[pq], t.conf[qp] = uint8(x.conf), uint8(x.conf)
				continue
			}
			c, ok := d.code(x)
			if !ok {
				return fmt.Errorf("analysis: %s has more than %d distinct path-pair terms, the most a path table codes", t.nw, maxTerms-1)
			}
			t.codes[int(t.off[pi])+q] = c
		}
	}
	if t.codes != nil {
		t.terms = append([]term(nil), d.terms...)
	}
	return nil
}

// termDict interns a compact table's terms while it is built: an
// open-addressing set of codes into terms, with twice as many slots as
// codes, so it is at most half full. Slot value 0 marks an empty slot;
// code 0, the all-zero term, is never looked up.
type termDict struct {
	terms []term
	slots []uint16
}

// code returns x's code, adding x to the dictionary if it is new; ok is
// false when the dictionary is full. x must not be the all-zero term.
func (d *termDict) code(x term) (c uint16, ok bool) {
	h := uint64(x.noise[0])*0x9E3779B97F4A7C15 ^ uint64(x.noise[1])
	h = (h^h>>31)*0xBF58476D1CE4E5B9 ^ uint64(x.conf)
	h = (h ^ h>>29) * 0x94D049BB133111EB
	mask := uint64(len(d.slots) - 1)
	for i := h >> 32 & mask; ; i = (i + 1) & mask {
		switch c = d.slots[i]; {
		case c == 0:
			if len(d.terms) == maxTerms {
				return 0, false
			}
			c = uint16(len(d.terms))
			d.terms = append(d.terms, x)
			d.slots[i] = c
			return c, true
		case d.terms[c] == x:
			return c, true
		}
	}
}

// tablePath is the network's path from src to dst, or nil for the
// diagonal and for a pair a pair-restricted build left out.
func tablePath(nw *network.Network, src, dst int) *network.Path {
	if src == dst {
		return nil
	}
	return nw.Path(topo.TileID(src), topo.TileID(dst))
}

// sumDense sums each victim's row over the paths of the set, including
// its own column, whose diagonal entry adds no noise. Conflicts are
// symmetric, so each pair's count is read once, from the earlier
// communication's row.
//
//phonocmap:noalloc
func (t *PathTable) sumDense(idx []int32, acc []int64) (conflicts int) {
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

// pathComm is one communication of a set with its path index, and the
// noise the compact sum has gathered for it so far.
type pathComm struct {
	path, comm int32
	noise      int64
}

// sortByPath writes the set's communications to sorted in ascending path
// index (src·n+dst over n tiles), with two stable counting passes: by
// destination tile into byDst, then by source tile into sorted. count
// holds n+1 counters. All three are the caller's scratch (the
// Evaluator's), sized to the set and the network: a table is shared
// read-only across goroutines, so it owns none. With the counting passes
// the sorted sum took 0.53–0.93× the former sum's time, with a
// comparison sort (slices.SortFunc) 0.73–1.32× (see sumCompact).
//
//phonocmap:noalloc
func sortByPath(idx []int32, n int, sorted, byDst []pathComm, count []int32) {
	tiles := uint32(n)
	clear(count)
	for _, p := range idx {
		count[uint32(p)%tiles+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	for i, p := range idx {
		d := uint32(p) % tiles
		byDst[count[d]] = pathComm{path: p, comm: int32(i)}
		count[d]++
	}
	clear(count)
	for _, x := range byDst {
		count[uint32(x.path)/tiles+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	for _, x := range byDst {
		s := uint32(x.path) / tiles
		sorted[count[s]] = x
		count[s]++
	}
}

// sumCompact reads each unordered pair of the set once and applies both
// directions. sorted is the set in ascending path index (sortByPath), so
// for i < j the earlier path has the lower index: it receives the term's
// noise[0] and the later one noise[1], with no ordering per pair (term's
// mask), and each row's codes are read at ascending columns, a stream the
// hardware prefetcher follows. The later communications' noise gathers
// in sorted itself, read and written in order, and each communication's
// total goes to acc once its row is done. Sort included, it took
// 0.53–0.66× the time of the former sum, which read the set in
// communication order, on 6×6 Crux/XY meshes and tori with 44
// communications, DVOPD's size, and 0.62–0.93× on 5×5 ones with 29,
// Wavelet's (8,192 random sets, median of 9 interleaved rounds, three
// runs, Intel Xeon, 2 vCPUs).
//
//phonocmap:noalloc
func (t *PathTable) sumCompact(sorted []pathComm, acc []int64) (conflicts int) {
	for i := range sorted {
		a := &sorted[i]
		row := t.codes[int(t.off[a.path]):]
		n := a.noise
		for j := i + 1; j < len(sorted); j++ {
			b := &sorted[j]
			x := &t.terms[row[b.path]]
			n += x.noise[0]
			b.noise += x.noise[1]
			conflicts += int(x.conf)
		}
		acc[a.comm] = n
	}
	return conflicts
}

// row returns path p's dense noise and conflict rows.
func (t *PathTable) row(p int32) ([]int64, []uint8) {
	lo := int(p) * t.stride
	return t.noise[lo : lo+t.stride], t.conf[lo : lo+t.stride]
}

// term returns the compact term of paths p and q and the index s of its
// noise entry that p receives: 0 when p is the lower path index (or the
// same), 1 when it is the higher. Deltas read unsorted pairs through
// it, so it orders the pair with a mask, lt all ones when q < p, rather
// than a branch, which the pairs of a random set mispredict about half
// the time: branch-free, a compact 4×4 table's swaps took 0.67× the time
// (8 rounds).
func (t *PathTable) term(p, q int32) (x *term, s int32) {
	lt := (q - p) >> 31
	lo, hi := q&lt|p&^lt, p&lt|q&^lt
	return &t.terms[t.codes[int(t.off[lo])+int(hi)]], lt & 1
}

// delta moves a set from the old paths of the changed communications to
// their new ones in idx, patching acc and returning the change in
// conflicts. changed lists the changed communications, old their
// previous paths in the same order, and mark flags them. Each unchanged
// victim swaps what the changed communications' old paths injected into
// it for what their new ones inject; each pair of two changed
// communications trades its old conflict count for its new one, once;
// and each changed victim's noise is gathered afresh from the set.
func (t *PathTable) delta(idx []int32, acc []int64, changed []int, old []int32, mark []bool) (dconf int) {
	if t.codes != nil {
		return t.deltaCompact(idx, acc, changed, old, mark)
	}
	return t.deltaDense(idx, acc, changed, old, mark)
}

// deltaDense is delta on the dense layout. It sums each changed
// victim's own row over the set, a contiguous read, where reading the
// other direction of each victim pair would cost one more load per pair.
//
//phonocmap:noalloc
func (t *PathTable) deltaDense(idx []int32, acc []int64, changed []int, old []int32, mark []bool) (dconf int) {
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

// deltaCompact is delta on the compact layout. It reads each pair of an
// unchanged victim and a changed path once for both directions: the new
// term's one entry is what the changed communication now injects into
// the victim, the other what the victim injects into it. The changed
// communications' accumulators restart from zero and gather those, plus
// one read per pair of two changed communications, so no changed victim
// is summed over the set again: about 2·|Δ|·m reads in all.
//
//phonocmap:noalloc
func (t *PathTable) deltaCompact(idx []int32, acc []int64, changed []int, old []int32, mark []bool) (dconf int) {
	for _, c := range changed {
		acc[c] = 0
	}
	for v, p := range idx {
		if mark[v] {
			continue
		}
		var dn, dc int64
		for k, c := range changed {
			xq, sq := t.term(p, idx[c])
			xo, so := t.term(p, old[k])
			dn += xq.noise[sq] - xo.noise[so]
			acc[c] += xq.noise[sq^1]
			dc += xq.conf - xo.conf
		}
		acc[v] += dn
		dconf += int(dc)
	}
	for k, c := range changed {
		for l := k + 1; l < len(changed); l++ {
			d := changed[l]
			xq, s := t.term(idx[c], idx[d])
			xo, _ := t.term(old[k], old[l])
			acc[c] += xq.noise[s]
			acc[d] += xq.noise[s^1]
			dconf += int(xq.conf - xo.conf)
		}
	}
	return dconf
}
