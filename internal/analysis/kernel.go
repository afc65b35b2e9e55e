package analysis

import (
	"math"

	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
)

// entry is one path step in an element's occupancy list. It carries
// inline everything the pair kernel reads from the step, so scanning an
// element's occupants never dereferences another communication's path.
type entry struct {
	comm int32
	// class packs the step's element kind, ring state and ports into one
	// byte: kind<<5 | state<<4 | in<<2 | out. Two steps' class bytes are
	// all the pair table needs to classify their pair.
	class uint8
	// lossBefore and downstream are the step's LinLossBefore and
	// LinDownstream (see network.Step).
	lossBefore float64
	downstream float64
}

func entryOf(comm int, s *network.Step) entry {
	return entry{
		comm:       int32(comm),
		class:      uint8(s.Kind)<<5 | uint8(s.State)<<4 | uint8(s.In)<<2 | uint8(s.Out),
		lossBefore: s.LinLossBefore,
		downstream: s.LinDownstream,
	}
}

// Pair bits: pairs[x][y] classifies a pair of steps of classes x and y
// sharing an element, both directions at once.
const (
	// leaksIntoFirst: the y step injects first-order crosstalk into the
	// x step's output port (the victim-centric test of
	// photonic.LeaksInto, with x as the victim).
	leaksIntoFirst uint8 = 1 << iota
	// contends: same input waveguide (the signals already share the
	// upstream segment) or same output waveguide (they merge
	// downstream) — single-wavelength contention, not crosstalk, so a
	// contending pair has no leak bit. The test is symmetric. The bit's
	// value, 2, is the pair's conflict count (one per victim), so the
	// pair loops add it without a branch.
	contends
	// leaksIntoSecond: the x step leaks into the y step's output port.
	leaksIntoSecond
)

// pairs is the pair table (16 KiB). Every pair loop reads it once per
// pair, runs once per pair of class runs, and branches only on the leak
// bits. A branch per effect is hard to predict: on the 8×8 dense problem
// 40 % of co-located pairs contend, 44 % do nothing and 16 % leak, and
// the delta scans meet them in whatever class order deltas leave the
// lists.
var pairs = func() (t [128][128]uint8) {
	for x := range t {
		for y := range t[x] {
			xin, xout := photonic.Port(x>>2&3), photonic.Port(x&3)
			yin, yout := photonic.Port(y>>2&3), photonic.Port(y&3)
			if xin == yin || xout == yout {
				t[x][y] = contends
				continue
			}
			if photonic.LeaksInto(photonic.Kind(x>>5), photonic.State(x>>4&1), yin, xout) {
				t[x][y] |= leaksIntoFirst
			}
			if photonic.LeaksInto(photonic.Kind(y>>5), photonic.State(y>>4&1), xin, yout) {
				t[x][y] |= leaksIntoSecond
			}
		}
	}
	return t
}()

// pairOf reads the pair bits of two classes. Class bytes fit in 7 bits,
// and masking them to 7 lets the compiler drop both bounds checks.
func pairOf(x, y uint8) uint8 { return pairs[x&127][y&127] }

// occupancy is the element-occupancy map the pair kernel works on: for
// every element, the entries of the path steps traversing it, plus the
// network's linear leak coefficients. Evaluator and Incremental each own
// one.
type occupancy struct {
	lists [][]entry
	// used lists the elements that received an entry since the last
	// seat (inUsed marks them), so seating and a whole-set pass cost
	// O(used), not O(elements).
	used   []network.GlobalElem
	inUsed []bool
	// leak[class>>4] is the linear leak coefficient of the victim's
	// element kind and ring state.
	leak [8]float64
}

// bind sizes the map for a network and loads its leak coefficients,
// keeping the buffers when the element count allows.
func (o *occupancy) bind(nw *network.Network) {
	if ne := nw.NumElements(); len(o.lists) != ne {
		o.lists = make([][]entry, ne)
		o.inUsed = make([]bool, ne)
		o.used = o.used[:0]
	}
	p := nw.Params()
	for _, k := range []photonic.Kind{photonic.Crossing, photonic.PPSE, photonic.CPSE} {
		for _, s := range []photonic.State{photonic.Off, photonic.On} {
			o.leak[uint8(k)<<1|uint8(s)] = photonic.DBToLinear(p.LeakCoeff(k, s))
		}
	}
}

// seat empties the map and enters every step of every path.
func (o *occupancy) seat(paths []*network.Path) {
	for _, g := range o.used {
		o.lists[g] = o.lists[g][:0]
		o.inUsed[g] = false
	}
	o.used = o.used[:0]
	for ci, p := range paths {
		o.addPath(ci, p)
	}
}

func (o *occupancy) add(g network.GlobalElem, e entry) {
	if !o.inUsed[g] {
		o.inUsed[g] = true
		o.used = append(o.used, g)
	}
	o.lists[g] = append(o.lists[g], e)
}

// addPath enters every step of a communication's path.
func (o *occupancy) addPath(comm int, p *network.Path) {
	for si := range p.Steps {
		o.add(p.Steps[si].Node, entryOf(comm, &p.Steps[si]))
	}
}

// noise is the quantized first-order leak of aggressor a into victim v:
// the leak coefficient of v's element state, a's attenuation up to the
// element and v's attenuation from it to the detector, multiplied in
// that order everywhere.
func (o *occupancy) noise(v, a *entry) int64 {
	return fixedNoise(o.leak[v.class>>4] * a.lossBefore * v.downstream)
}

// runMin is the shortest occupancy list the whole-set pass walks by class
// runs (see runs) instead of pair by pair. It was set by timing both ways,
// the walk with its sort, on the lists of 2 to 16 steps that random
// mappings leave on two sets of instances (Intel Xeon, 2 vCPUs): the 8×8
// dense problem (56 tasks, 220 communications, Crux/XY mesh), where the
// walk breaks even at 5 steps and takes 0.85× the loop's time at 6 and
// 0.5× at 12, and the paper's eight Table II apps on Crux/XY meshes and
// tori, where it takes 1.7× at 4 steps and 1.1× at 7, then 0.9× at 8 and
// 0.5× at 12. Eight is the shortest length where the walk wins on both.
const runMin = 8

// pass is the whole-set pair kernel. Element by element, it visits each
// unordered pair of co-located steps of two different communications
// once and applies both directions: each side's quantized leak from the
// other into acc, or 2 conflicts (one per victim) for a contending pair.
// With a channel assignment only same-channel pairs interact. Without
// one, lists of at least runMin steps are left to runs, which counts the
// same pairs by class. runs is called from a second loop: called from the
// first, it made the compiler keep the pair loop's indices on the stack,
// and BenchmarkFig3EvalPIP took a third longer. acc must be zeroed by the
// caller; integer sums make the visiting order irrelevant.
//
//phonocmap:noalloc
func (o *occupancy) pass(acc []int64, channel []int) (conflicts int) {
	for _, g := range o.used {
		occ := o.lists[g]
		if channel == nil && len(occ) >= runMin {
			continue
		}
		for i := 1; i < len(occ); i++ {
			b := &occ[i]
			for j := range occ[:i] {
				a := &occ[j]
				if a.comm == b.comm || channel != nil && channel[a.comm] != channel[b.comm] {
					continue
				}
				t := pairOf(a.class, b.class)
				conflicts += int(t & contends)
				if t&leaksIntoFirst != 0 {
					acc[a.comm] += o.noise(a, b)
				}
				if t&leaksIntoSecond != 0 {
					acc[b.comm] += o.noise(b, a)
				}
			}
		}
	}
	if channel == nil {
		for _, g := range o.used {
			if occ := o.lists[g]; len(occ) >= runMin {
				conflicts += o.runs(acc, occ)
			}
		}
	}
	return conflicts
}

// runs is pass over one element's list, grouped by class. It sorts the
// list in place by class byte (order within a list means nothing) and
// walks its runs of equal class, since two steps' classes alone decide
// whether their pair leaks, contends or neither:
//
//   - a run of k steps adds k(k−1) conflicts: equal classes share their
//     input port, so every pair in the run contends;
//   - two contending runs of k₁ and k₂ steps add 2·k₁·k₂ conflicts;
//   - two runs that neither leak nor contend are skipped;
//   - only two runs with a leaking direction visit their steps, adding
//     each leaking direction's quantized noise pair by pair.
//
// The bulk counts rest on one invariant of network builds: no path
// crosses an element twice (TestPathsCrossEachElementOnce in
// internal/network), so every pair in a list is a pair of two different
// communications, the pairs the per-pair loop's comm test keeps.
//
//phonocmap:noalloc
func (o *occupancy) runs(acc []int64, occ []entry) (conflicts int) {
	for i := 1; i < len(occ); i++ {
		e := occ[i]
		j := i
		for ; j > 0 && occ[j-1].class > e.class; j-- {
			occ[j] = occ[j-1]
		}
		occ[j] = e
	}
	for i, j := 0, 0; i < len(occ); i = j {
		j = runEnd(occ, i)
		ra := occ[i:j]
		conflicts += len(ra) * (len(ra) - 1)
		for l, m := j, j; l < len(occ); l = m {
			m = runEnd(occ, l)
			rb := occ[l:m]
			t := pairOf(ra[0].class, rb[0].class)
			conflicts += int(t&contends) * len(ra) * len(rb)
			if t&leaksIntoFirst != 0 {
				o.leakInto(acc, ra, rb)
			}
			if t&leaksIntoSecond != 0 {
				o.leakInto(acc, rb, ra)
			}
		}
	}
	return conflicts
}

// runEnd returns the end of the class run that starts at occ[i].
func runEnd(occ []entry, i int) int {
	c := occ[i].class
	for i++; i < len(occ) && occ[i].class == c; i++ {
	}
	return i
}

// leakInto adds to each victim step the quantized leak of every aggressor
// step, one pair at a time.
//
//phonocmap:noalloc
func (o *occupancy) leakInto(acc []int64, victims, aggressors []entry) {
	for i := range victims {
		v := &victims[i]
		var n int64
		for j := range aggressors {
			n += o.noise(v, &aggressors[j])
		}
		acc[v.comm] += n
	}
}

// fold reduces per-victim noise into a Result, scanning in communication
// order: the worst-case indices with their first-index tie-break and the
// (weighted) mean's accumulation order are the same on every evaluation
// path. details, when non-nil, receives one Detail per communication.
func fold(paths []*network.Path, acc []int64, weights []float64, conflicts int, details []Detail) Result {
	res := Result{
		WorstLossDB:  0,
		WorstSNRDB:   math.Inf(1),
		WorstLossIdx: -1,
		WorstSNRIdx:  -1,
		Conflicts:    conflicts,
	}
	lossSum, weightSum := 0.0, 0.0
	for vi, p := range paths {
		loss := p.TotalLoss
		if res.WorstLossIdx < 0 || loss < res.WorstLossDB {
			res.WorstLossDB = loss
			res.WorstLossIdx = vi
		}
		w := 1.0
		if weights != nil {
			w = weights[vi]
		}
		lossSum += w * loss
		weightSum += w
		snr := math.Inf(1)
		noiseDB := math.Inf(-1)
		if acc[vi] > 0 {
			noiseDB = photonic.LinearToDB(noiseFromFixed(acc[vi]))
			snr = loss - noiseDB
		}
		if res.WorstSNRIdx < 0 || snr < res.WorstSNRDB {
			res.WorstSNRDB = snr
			res.WorstSNRIdx = vi
		}
		if details != nil {
			details[vi] = Detail{LossDB: loss, NoiseDB: noiseDB, SNRDB: snr}
		}
	}
	if weightSum > 0 {
		res.AvgLossDB = lossSum / weightSum
	}
	return res
}
