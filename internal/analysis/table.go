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
// m² table reads on the dense layout and m(m−1)/2 on the compact one
// (sum), a delta of |Δ| of them about 3·|Δ|·m (delta).
//
// Paths are indexed src*n+dst over the network's n tiles. The conflict
// count is symmetric and counts 2 per contending shared element, the
// kernel's count for one pair of co-located steps (one per victim). The
// diagonal holds what two communications on one path give each other:
// no noise, and 2 conflicts per step, since every step contends with its
// twin. A table is immutable once built and safe for concurrent use.
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
// (concurrent callers wait for it) and freed with the network. TableBytes
// gives its size.
func TableOf(nw *network.Network) (*PathTable, error) {
	r := nw.Memo(func(nw *network.Network) any {
		t, err := newPathTable(nw, nw.NumTiles() <= denseMaxTiles)
		return tableOrErr{t, err}
	}).(tableOrErr)
	return r.t, r.err
}

// TableBytes returns the memory nw's path table takes, built or not,
// without building it. A dense table takes an int64 noise term and a
// uint8 conflict count for each of the (n²)² ordered pairs of path
// indices of n tiles, exactly. A compact table takes a uint16 code per
// unordered pair and an int32 row offset per path index, plus its
// dictionary, whose size only the build knows: it is charged at maxTerms
// entries, so TableBytes never under-counts a built table.
func TableBytes(nw *network.Network) int64 {
	n := int64(nw.NumTiles())
	stride := n * n
	if n <= denseMaxTiles {
		return stride * stride * 9
	}
	return stride*(stride+1)/2*2 + stride*4 + maxTerms*int64(unsafe.Sizeof(term{}))
}

// newPathTable seats every path of the network in exactly sized
// occupancy lists, one slab for all of them, and fills the dense or the
// compact layout from them with the pair kernel's terms. It rests on
// the invariant the class-run walk rests on: no path crosses an element
// twice, so two entries of one list belong to two different paths.
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
	t := &PathTable{nw: nw, stride: n * n}
	o := occupancy{leak: leakCoeffs(nw.Params())}
	if dense {
		t.fillDense(&o, slab, first)
	} else if err := t.fillCompact(&o, slab, first); err != nil {
		return nil, err
	}
	tableBuilds.Inc()
	//phonocmap:wallclock the elapsed time only feeds the table build-time counter
	tableBuildNanos.Add(int64(time.Since(start)))
	return t, nil
}

// fillDense runs the pair kernel's loop over each element's list of the
// slab, adding each pair's terms to the pair's two entries.
func (t *PathTable) fillDense(o *occupancy, slab []entry, first []int32) {
	n, stride := t.nw.NumTiles(), t.stride
	t.noise, t.conf = make([]int64, stride*stride), make([]uint8, stride*stride)
	for pi := 0; pi < stride; pi++ {
		if p := tablePath(t.nw, pi/n, pi%n); p != nil {
			t.conf[pi*stride+pi] = uint8(2 * len(p.Steps))
		}
	}
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
}

// fillCompact builds the compact layout victim-major: for each path p it
// walks the lists of p's elements, takes every entry of a higher path
// index q whose pair with p's step leaks or contends, and accumulates
// both directions and the conflicts into a row of scratch terms; then it
// codes the row's nonzero terms, and p's diagonal, through the
// dictionary.
func (t *PathTable) fillCompact(o *occupancy, slab []entry, first []int32) error {
	n, stride := t.nw.NumTiles(), t.stride
	t.off = make([]int32, stride)
	size := 0
	for p := range t.off {
		t.off[p] = int32(size - p)
		size += stride - p
	}
	t.codes = make([]uint16, size)
	d := termDict{terms: make([]term, 1, maxTerms), slots: make([]uint16, 2*maxTerms)}
	row := make([]term, stride)
	for pi := 0; pi < stride; pi++ {
		p := tablePath(t.nw, pi/n, pi%n)
		if p == nil {
			continue
		}
		for si := range p.Steps {
			a := entryOf(pi, &p.Steps[si])
			g := p.Steps[si].Node
			occ := slab[first[g]:first[g+1]]
			for j := range occ {
				b := &occ[j]
				if int(b.comm) <= pi {
					continue
				}
				pr := pairOf(a.class, b.class)
				if pr == 0 {
					continue
				}
				x := &row[b.comm]
				x.conf += int64(pr & contends)
				if pr&leaksIntoFirst != 0 {
					x.noise[0] += o.noise(&a, b)
				}
				if pr&leaksIntoSecond != 0 {
					x.noise[1] += o.noise(b, &a)
				}
			}
		}
		codes := t.codes[int(t.off[pi])+pi : int(t.off[pi])+stride]
		row[pi] = term{conf: int64(2 * len(p.Steps))}
		for q := pi; q < stride; q++ {
			if row[q] == (term{}) {
				continue
			}
			c, ok := d.code(row[q])
			if !ok {
				return fmt.Errorf("analysis: %s has more than %d distinct path-pair terms, the most a path table codes", t.nw, maxTerms-1)
			}
			codes[q-pi] = c
			row[q] = term{}
		}
	}
	t.terms = append([]term(nil), d.terms...)
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

// sum is the table engine's whole-set evaluation: it fills acc with every
// victim's noise and returns the set's conflicts.
func (t *PathTable) sum(idx []int32, acc []int64) (conflicts int) {
	if t.codes != nil {
		return t.sumCompact(idx, acc)
	}
	return t.sumDense(idx, acc)
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

// sumCompact reads each unordered pair of the set once and applies both
// directions: the term's noise[s] to the earlier communication and
// noise[s^1] to the later one, s picked by which path index is higher.
//
//phonocmap:noalloc
func (t *PathTable) sumCompact(idx []int32, acc []int64) (conflicts int) {
	clear(acc)
	for i, p := range idx {
		var n int64
		for j := i + 1; j < len(idx); j++ {
			x, s := t.term(p, idx[j])
			n += x.noise[s]
			acc[j] += x.noise[s^1]
			conflicts += int(x.conf)
		}
		acc[i] += n
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
// same), 1 when it is the higher. It orders the pair with a mask, lt all
// ones when q < p, rather than a branch, which the pairs of a random set
// mispredict about half the time: branch-free, BenchmarkFig3EvalWavelet
// took 0.72× and a compact 4×4 table's swaps 0.67× the time (8 rounds).
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
// and each changed victim's noise is summed afresh over the set.
func (t *PathTable) delta(idx []int32, acc []int64, changed []int, old []int32, mark []bool) (dconf int) {
	if t.codes != nil {
		return t.deltaCompact(idx, acc, changed, old, mark)
	}
	return t.deltaDense(idx, acc, changed, old, mark)
}

// deltaDense is delta on the dense layout.
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

// deltaCompact is delta on the compact layout, reading every pair
// through term.
//
//phonocmap:noalloc
func (t *PathTable) deltaCompact(idx []int32, acc []int64, changed []int, old []int32, mark []bool) (dconf int) {
	for v, p := range idx {
		if mark[v] {
			continue
		}
		var dn, dc int64
		for k, c := range changed {
			xq, sq := t.term(p, idx[c])
			xo, so := t.term(p, old[k])
			dn += xq.noise[sq] - xo.noise[so]
			dc += xq.conf - xo.conf
		}
		acc[v] += dn
		dconf += int(dc)
	}
	for k, c := range changed {
		for l := k + 1; l < len(changed); l++ {
			xq, _ := t.term(idx[c], idx[changed[l]])
			xo, _ := t.term(old[k], old[l])
			dconf += int(xq.conf - xo.conf)
		}
	}
	for _, c := range changed {
		p := idx[c]
		var n int64
		for _, q := range idx {
			x, s := t.term(p, q)
			n += x.noise[s]
		}
		acc[c] = n
	}
	return dconf
}
