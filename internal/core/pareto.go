package core

import "sort"

// ParetoPoint is one non-dominated mapping of the two-objective space
// (worst-case loss, worst-case SNR). For both axes, greater is better:
// losses are negative dB (closer to zero wins) and SNR is positive dB,
// +Inf for a mapping without crosstalk.
type ParetoPoint struct {
	Mapping     Mapping
	WorstLossDB float64
	WorstSNRDB  JSONFloat
}

// dominates reports whether a is at least as good as b on both axes and
// strictly better on one.
func dominates(a, b ParetoPoint) bool {
	if a.WorstLossDB < b.WorstLossDB || a.WorstSNRDB < b.WorstSNRDB {
		return false
	}
	return a.WorstLossDB > b.WorstLossDB || a.WorstSNRDB > b.WorstSNRDB
}

// ParetoFront maintains the archive of mutually non-dominated mappings
// observed during a search. The zero value is an empty front. Fronts are
// not safe for concurrent use.
type ParetoFront struct {
	points []ParetoPoint
}

// Offer considers a scored mapping for the archive. It returns true when
// the mapping enters the front (evicting any points it dominates) and
// false when an archived point dominates or duplicates it.
func (f *ParetoFront) Offer(m Mapping, s Score) bool {
	cand := ParetoPoint{WorstLossDB: s.WorstLossDB, WorstSNRDB: JSONFloat(s.WorstSNRDB)}
	for _, p := range f.points {
		if dominates(p, cand) ||
			(p.WorstLossDB == cand.WorstLossDB && p.WorstSNRDB == cand.WorstSNRDB) {
			return false
		}
	}
	kept := f.points[:0]
	for _, p := range f.points {
		if !dominates(cand, p) {
			kept = append(kept, p)
		}
	}
	cand.Mapping = m.Clone()
	f.points = append(kept, cand)
	return true
}

// Size returns the number of archived points.
func (f *ParetoFront) Size() int { return len(f.points) }

// Points returns the front sorted by decreasing loss quality (least lossy
// first); SNR then decreases along the front by construction.
func (f *ParetoFront) Points() []ParetoPoint {
	out := make([]ParetoPoint, len(f.points))
	copy(out, f.points)
	sort.Slice(out, func(i, j int) bool {
		if out[i].WorstLossDB != out[j].WorstLossDB {
			return out[i].WorstLossDB > out[j].WorstLossDB
		}
		return out[i].WorstSNRDB > out[j].WorstSNRDB
	})
	return out
}

// Attach wires the front into a search context so that every evaluated
// mapping is offered to the archive, composing with any existing
// OnEvaluate observer.
func (f *ParetoFront) Attach(ctx *Context) {
	prev := ctx.OnEvaluate
	ctx.OnEvaluate = func(m Mapping, s Score) {
		f.Offer(m, s)
		if prev != nil {
			prev(m, s)
		}
	}
}
