package search

import (
	"fmt"
	"math/rand"

	"phonocmap/internal/core"
	"phonocmap/internal/topo"
)

// GA is the paper's genetic algorithm: a fixed-size population of
// candidate mappings evolves through tournament selection, partially
// mapped crossover (PMX) and swap mutation, with elitism, until the
// evaluation budget is exhausted.
//
// Mappings of n tasks onto m >= n tiles are encoded as full permutations
// of the m tiles; the first n genes are the mapping and the remainder are
// phantom placements, so PMX and swap mutation preserve injectivity by
// construction.
//
// The search is generational in evaluation too: each generation's
// children are bred first (consuming the RNG) and then scored in one
// Context.EvaluateBatch call, by full evaluation (a child is an
// arbitrary permutation, not a swap away from any mapping scored
// before it), so offspring evaluation parallelizes across eval workers
// while staying bit-identical to a sequential child-by-child loop. Both population generations live in a single
// reused slab, so breeding allocates nothing after setup.
type GA struct {
	// PopSize is the population size (paper: "fixed-sized population").
	PopSize int
	// Elite individuals survive unchanged each generation.
	Elite int
	// TournamentK is the tournament selection size.
	TournamentK int
	// CrossoverRate is the probability a child is produced by PMX rather
	// than cloning a parent.
	CrossoverRate float64
	// MutationRate is the probability a child undergoes one swap
	// mutation (repeated geometrically: after each applied swap another
	// follows with the same probability).
	MutationRate float64
}

// NewGA returns a GA with the default parameter set used in the
// experiments.
func NewGA() *GA {
	return &GA{
		PopSize:       48,
		Elite:         2,
		TournamentK:   3,
		CrossoverRate: 0.9,
		MutationRate:  0.4,
	}
}

// Name returns "ga".
func (g *GA) Name() string { return "ga" }

func (g *GA) validate() error {
	if g.PopSize < 2 {
		return fmt.Errorf("search: ga population must be >= 2, got %d", g.PopSize)
	}
	if g.Elite < 0 || g.Elite >= g.PopSize {
		return fmt.Errorf("search: ga elite %d out of range [0, %d)", g.Elite, g.PopSize)
	}
	if g.TournamentK < 1 {
		return fmt.Errorf("search: ga tournament size must be >= 1, got %d", g.TournamentK)
	}
	if g.CrossoverRate < 0 || g.CrossoverRate > 1 {
		return fmt.Errorf("search: ga crossover rate %v out of [0,1]", g.CrossoverRate)
	}
	if g.MutationRate < 0 || g.MutationRate > 1 {
		return fmt.Errorf("search: ga mutation rate %v out of [0,1]", g.MutationRate)
	}
	return nil
}

// individual is a full tile permutation plus its cached score.
type individual struct {
	perm  []topo.TileID
	score core.Score
	valid bool // score evaluated
}

// Search implements core.Searcher.
func (g *GA) Search(ctx *core.Context) error {
	if err := g.validate(); err != nil {
		return err
	}
	rng := ctx.Rng()
	numTasks := ctx.Problem().NumTasks()
	numTiles := ctx.Problem().NumTiles()

	// One slab backs both generations' permutations: pop owns the first
	// PopSize chunks, next the second, and the generational hand-over
	// swaps the slice headers wholesale. Children are bred by copying
	// into next's chunks, so no generation allocates after this setup —
	// the former per-child clonePerm/pmx allocations are gone (pinned by
	// BenchmarkGAAllocs).
	slab := make([]topo.TileID, 2*g.PopSize*numTiles)
	pop := make([]individual, g.PopSize)
	next := make([]individual, g.PopSize)
	for i := range pop {
		pop[i].perm = slab[i*numTiles : (i+1)*numTiles : (i+1)*numTiles]
		ni := g.PopSize + i
		next[i].perm = slab[ni*numTiles : (ni+1)*numTiles : (ni+1)*numTiles]
	}
	// pmxInto scratch, indexed by gene value.
	inSegment := make([]bool, numTiles)
	posInA := make([]int, numTiles)
	// Batch scratch: the generation members awaiting scores, in breeding
	// order, and their indices.
	cands := make([]core.Mapping, 0, g.PopSize)
	candIdx := make([]int, 0, g.PopSize)

	// flush scores the pending candidates in one batch and writes the
	// results back. full is false when the budget ran out mid-batch: the
	// scored prefix was accounted exactly as a sequential loop would
	// have, and the search is over.
	flush := func(gen []individual) (full bool, err error) {
		if len(cands) == 0 {
			return true, nil
		}
		scores, n, err := ctx.EvaluateBatch(cands)
		if err != nil {
			return false, err
		}
		for k := 0; k < n; k++ {
			gen[candIdx[k]].score = scores[k]
			gen[candIdx[k]].valid = true
		}
		full = n == len(cands)
		cands, candIdx = cands[:0], candIdx[:0]
		return full, nil
	}

	for i := range pop {
		core.DrawPerm(rng, pop[i].perm)
		cands = append(cands, core.Mapping(pop[i].perm[:numTasks]))
		candIdx = append(candIdx, i)
	}
	if full, err := flush(pop); err != nil {
		return err
	} else if !full {
		return nil // budget exhausted during initialization
	}

	tournament := func() *individual {
		best := &pop[rng.Intn(len(pop))]
		for i := 1; i < g.TournamentK; i++ {
			c := &pop[rng.Intn(len(pop))]
			if c.score.Better(best.score) {
				best = c
			}
		}
		return best
	}

	for !ctx.Exhausted() {
		spentBefore := ctx.Evals()
		// Elitism: carry the best individuals over unchanged.
		sortByScore(pop)
		for i := 0; i < g.Elite; i++ {
			copy(next[i].perm, pop[i].perm)
			next[i].score, next[i].valid = pop[i].score, true
		}
		for i := g.Elite; i < g.PopSize; i++ {
			p1, p2 := tournament(), tournament()
			child := &next[i]
			if rng.Float64() < g.CrossoverRate {
				pmxInto(rng, p1.perm, p2.perm, child.perm, inSegment, posInA)
				child.valid = false
			} else {
				// A clone starts as an exact copy of its parent and
				// inherits the parent's cached score: re-evaluating it
				// would burn a budget unit for no information — an
				// effective-budget leak under the equal-budget protocol.
				// Mutation below flips valid, forcing an evaluation only
				// when the mapping actually changed.
				copy(child.perm, p1.perm)
				child.score, child.valid = p1.score, true
			}
			for rng.Float64() < g.MutationRate {
				x, y := rng.Intn(numTiles), rng.Intn(numTiles)
				child.perm[x], child.perm[y] = child.perm[y], child.perm[x]
				child.valid = false
			}
			if !child.valid {
				cands = append(cands, core.Mapping(child.perm[:numTasks]))
				candIdx = append(candIdx, i)
			}
		}
		if full, err := flush(next); err != nil {
			return err
		} else if !full {
			return nil
		}
		pop, next = next, pop
		if ctx.Evals() == spentBefore && g.CrossoverRate == 0 && g.MutationRate == 0 {
			// Every child was an unmutated clone and the rates guarantee
			// every future generation will be too: with score inheritance
			// such generations are free, so without this stop the loop
			// would spin forever. A free generation under positive rates
			// is just luck — later generations can still mutate, so the
			// search keeps its budget and continues.
			return nil
		}
	}
	return nil
}

func sortByScore(pop []individual) {
	// Insertion sort: populations are small and mostly sorted across
	// generations.
	for i := 1; i < len(pop); i++ {
		for j := i; j > 0 && pop[j].score.Better(pop[j-1].score); j-- {
			pop[j], pop[j-1] = pop[j-1], pop[j]
		}
	}
}

// pmxInto is partially mapped crossover over permutations: a random
// segment of parent a is copied verbatim, and the remaining positions
// take parent b's genes, remapped through the segment's correspondence
// so the result stays a permutation. The child is written into dst;
// inSegment and posInA are caller-owned scratch of length len(a),
// indexed by gene value (inSegment must arrive all-false and is left
// all-false). RNG draws and output are identical to the allocating
// map-based form (pinned by TestPMXIntoMatchesReference).
//
//phonocmap:noalloc
func pmxInto(rng *rand.Rand, a, b, dst []topo.TileID, inSegment []bool, posInA []int) {
	n := len(a)
	lo := rng.Intn(n)
	hi := rng.Intn(n)
	if lo > hi {
		lo, hi = hi, lo
	}
	for i, v := range a {
		posInA[v] = i
	}
	for i := lo; i <= hi; i++ {
		dst[i] = a[i]
		inSegment[a[i]] = true
	}
	for i := 0; i < n; i++ {
		if i >= lo && i <= hi {
			continue
		}
		// The gene of b collides with the segment: follow the
		// correspondence chain until it resolves outside it.
		v := b[i]
		for inSegment[v] {
			v = b[posInA[v]]
		}
		dst[i] = v
	}
	for i := lo; i <= hi; i++ {
		inSegment[a[i]] = false
	}
}
