// Package robust is a determinism-analyzer fixture mimicking the robust
// package: its reports join the byte-compared cached payload, so it is a
// contract package too.
package robust

import "math/rand"

func perturb(seed int64, cuts map[[2]int]bool) ([]float64, [][2]int) {
	_ = rand.Float64()                    // want "global rand.Float64 in a determinism-contract package"
	rng := rand.New(rand.NewSource(seed)) // ok: the draws come from a seeded generator
	draws := []float64{rng.Float64()}
	var order [][2]int
	for c := range cuts {
		order = append(order, c) // want `append to "order" inside a map range`
	}
	return draws, order
}
