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
	// byte: kind<<5 | state<<4 | in<<2 | out. The whole byte is what the
	// pair table needs of a victim; the low nibble (in, out) is what it
	// needs of an aggressor.
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

// Pair effects, from the victim's side.
const (
	noEffect uint8 = iota
	// leaks: the aggressor injects first-order crosstalk into the
	// victim's output port.
	leaks
	// contends: same input waveguide (the signals already share the
	// upstream segment) or same output waveguide (they merge
	// downstream) — single-wavelength contention, not crosstalk. The
	// test is symmetric, so a contending pair contends both ways.
	contends
)

// pairEffect[victim class][aggressor in<<2|out] classifies one direction
// of a pair of steps sharing an element: contention first, then the
// victim-centric leak test of photonic.LeaksInto.
var pairEffect = func() (t [128][16]uint8) {
	for vc := range t {
		kind, state := photonic.Kind(vc>>5), photonic.State(vc>>4&1)
		vin, vout := photonic.Port(vc>>2&3), photonic.Port(vc&3)
		for ac := range t[vc] {
			ain, aout := photonic.Port(ac>>2), photonic.Port(ac&3)
			switch {
			case ain == vin || aout == vout:
				t[vc][ac] = contends
			case photonic.LeaksInto(kind, state, ain, vout):
				t[vc][ac] = leaks
			}
		}
	}
	return t
}()

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

// dropPath removes a communication's entries from the elements of its
// path, keeping the order of the rest.
func (o *occupancy) dropPath(comm int, p *network.Path) {
	for si := range p.Steps {
		g := p.Steps[si].Node
		kept := o.lists[g][:0]
		for _, e := range o.lists[g] {
			if int(e.comm) != comm {
				kept = append(kept, e)
			}
		}
		o.lists[g] = kept
	}
}

// noise is the quantized first-order leak of aggressor a into victim v:
// the leak coefficient of v's element state, a's attenuation up to the
// element and v's attenuation from it to the detector, multiplied in
// that order everywhere.
func (o *occupancy) noise(v, a *entry) int64 {
	return fixedNoise(o.leak[v.class>>4] * a.lossBefore * v.downstream)
}

// pass is the whole-set pair kernel. Element by element, it visits each
// unordered pair of co-located steps of two different communications
// once and applies both directions: each side's quantized leak from the
// other into acc, or 2 conflicts (one per victim) for a contending pair.
// With a channel assignment only same-channel pairs interact. acc must
// be zeroed by the caller; integer sums make the visiting order
// irrelevant.
//
//phonocmap:noalloc
func (o *occupancy) pass(acc []int64, channel []int) (conflicts int) {
	for _, g := range o.used {
		occ := o.lists[g]
		for i := 1; i < len(occ); i++ {
			b := &occ[i]
			for j := range occ[:i] {
				a := &occ[j]
				if a.comm == b.comm || channel != nil && channel[a.comm] != channel[b.comm] {
					continue
				}
				switch pairEffect[a.class][b.class&15] {
				case contends:
					conflicts += 2
					continue
				case leaks:
					acc[a.comm] += o.noise(a, b)
				}
				if pairEffect[b.class][a.class&15] == leaks {
					acc[b.comm] += o.noise(b, a)
				}
			}
		}
	}
	return conflicts
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
