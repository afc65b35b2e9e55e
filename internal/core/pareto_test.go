package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func pt(loss, snr float64) (Mapping, Score) {
	return Mapping{0}, Score{WorstLossDB: loss, WorstSNRDB: snr}
}

func TestParetoOfferBasics(t *testing.T) {
	var f ParetoFront
	m, s := pt(-2, 20)
	if !f.Offer(m, s) {
		t.Fatal("first point rejected")
	}
	// Dominated point (worse on both axes) rejected.
	if m2, s2 := pt(-3, 15); f.Offer(m2, s2) {
		t.Error("dominated point accepted")
	}
	// Duplicate rejected.
	if m2, s2 := pt(-2, 20); f.Offer(m2, s2) {
		t.Error("duplicate accepted")
	}
	// Trade-off point (better SNR, worse loss) accepted.
	if m2, s2 := pt(-3, 30); !f.Offer(m2, s2) {
		t.Error("trade-off point rejected")
	}
	if f.Size() != 2 {
		t.Fatalf("Size = %d, want 2", f.Size())
	}
	// Dominating point evicts both.
	if m2, s2 := pt(-1, 35); !f.Offer(m2, s2) {
		t.Error("dominating point rejected")
	}
	if f.Size() != 1 {
		t.Fatalf("Size after eviction = %d, want 1", f.Size())
	}
}

func TestParetoPointsSorted(t *testing.T) {
	var f ParetoFront
	for _, p := range [][2]float64{{-3, 30}, {-1, 10}, {-2, 20}} {
		m, s := pt(p[0], p[1])
		f.Offer(m, s)
	}
	pts := f.Points()
	if len(pts) != 3 {
		t.Fatalf("front size %d, want 3", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].WorstLossDB > pts[i-1].WorstLossDB {
			t.Error("not sorted by loss")
		}
		if pts[i].WorstSNRDB < pts[i-1].WorstSNRDB {
			t.Error("SNR should increase as loss worsens along a front")
		}
	}
}

// Property: after arbitrary offers, no archived point dominates another.
func TestParetoInvariant(t *testing.T) {
	f := func(raw []uint16) bool {
		var front ParetoFront
		for i := 0; i+1 < len(raw); i += 2 {
			loss := -float64(raw[i]%50) / 10
			snr := float64(raw[i+1] % 400)
			m, s := pt(loss, snr)
			front.Offer(m, s)
		}
		pts := front.Points()
		for i := range pts {
			for j := range pts {
				if i != j && dominates(pts[i], pts[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParetoOfferClonesMapping(t *testing.T) {
	var f ParetoFront
	m := Mapping{3, 5}
	f.Offer(m, Score{WorstLossDB: -1, WorstSNRDB: 10})
	m[0] = 9 // mutate the caller's slice
	if f.Points()[0].Mapping[0] != 3 {
		t.Error("front shares storage with the offered mapping")
	}
}

func TestParetoAttachCollectsDuringSearch(t *testing.T) {
	p := pipProblem(t, MaximizeSNR)
	ctx, err := NewContext(p, rand.New(rand.NewSource(11)), 120)
	if err != nil {
		t.Fatal(err)
	}
	var front ParetoFront
	observed := 0
	ctx.OnEvaluate = func(Mapping, Score) { observed++ }
	front.Attach(ctx)
	for i := 0; i < 120; i++ {
		if _, ok, err := ctx.Evaluate(ctx.RandomMapping()); err != nil || !ok {
			t.Fatal(err)
		}
	}
	if front.Size() == 0 {
		t.Fatal("empty front after 120 evaluations")
	}
	if observed != 120 {
		t.Errorf("composed observer saw %d evaluations, want 120", observed)
	}
	// The incumbent's SNR must appear on the front (it is non-dominated
	// on the SNR axis by construction).
	_, best, _ := ctx.Best()
	found := false
	for _, pt := range front.Points() {
		if float64(pt.WorstSNRDB) == best.WorstSNRDB {
			found = true
		}
	}
	if !found {
		t.Error("best SNR mapping missing from the front")
	}
	// Every archived mapping is valid.
	for _, pt := range front.Points() {
		if err := pt.Mapping.Validate(p.NumTiles()); err != nil {
			t.Errorf("archived mapping invalid: %v", err)
		}
	}
}
