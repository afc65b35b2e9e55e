package analysis

import (
	"fmt"
	"math"
	"testing"

	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

// xOnlyRouter builds a degenerate router whose only element is a single
// waveguide crossing traversed by through traffic; injection, ejection
// and turn paths are empty. It makes noise arithmetic exactly computable
// by hand.
func xOnlyRouter(t *testing.T) *router.Architecture {
	t.Helper()
	b := router.NewBuilder("xonly")
	c := b.AddElement(photonic.Crossing, "c")
	tr := func(in photonic.Port) []router.Traversal {
		return []router.Traversal{{Elem: c, In: in, State: photonic.Off}}
	}
	b.SetPath(router.West, router.East, tr(photonic.PortA0))
	b.SetPath(router.East, router.West, tr(photonic.PortA1))
	b.SetPath(router.North, router.South, tr(photonic.PortB0))
	b.SetPath(router.South, router.North, tr(photonic.PortB1))
	b.SetPath(router.West, router.North, tr(photonic.PortA0))
	b.SetPath(router.West, router.South, tr(photonic.PortA0))
	b.SetPath(router.East, router.North, tr(photonic.PortA1))
	b.SetPath(router.East, router.South, tr(photonic.PortA1))
	empty := []router.Traversal{}
	for _, d := range []router.Port{router.North, router.East, router.South, router.West} {
		b.SetPath(router.Local, d, empty)
		b.SetPath(d, router.Local, empty)
	}
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// pseOnlyRouter is xOnlyRouter with a PPSE instead of the crossing.
func pseOnlyRouter(t *testing.T) *router.Architecture {
	t.Helper()
	b := router.NewBuilder("ponly")
	p := b.AddElement(photonic.PPSE, "p")
	tr := func(in photonic.Port) []router.Traversal {
		return []router.Traversal{{Elem: p, In: in, State: photonic.Off}}
	}
	b.SetPath(router.West, router.East, tr(photonic.PortA0))
	b.SetPath(router.East, router.West, tr(photonic.PortA1))
	b.SetPath(router.North, router.South, tr(photonic.PortB0))
	b.SetPath(router.South, router.North, tr(photonic.PortB1))
	empty := []router.Traversal{}
	for _, d := range []router.Port{router.North, router.East, router.South, router.West} {
		b.SetPath(router.Local, d, empty)
		b.SetPath(d, router.Local, empty)
	}
	// Turns unused by the test but required for XY on a mesh.
	b.SetPath(router.West, router.North, tr(photonic.PortA0))
	b.SetPath(router.West, router.South, tr(photonic.PortA0))
	b.SetPath(router.East, router.North, tr(photonic.PortA1))
	b.SetPath(router.East, router.South, tr(photonic.PortA1))
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mesh3Net(t *testing.T, arch *router.Architecture) *network.Network {
	t.Helper()
	g, err := topo.NewMesh(3, 3, topo.WithDieCm(2))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := network.New(g, arch, route.XY{}, photonic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

const hop = 2.0 / 3.0 // cm per hop for a 3x3 mesh on a 2 cm die

// TestCrossingSNRByHand reproduces by hand the canonical crossing
// interaction: two straight communications intersecting at the centre
// router of a 3x3 mesh. Expected SNR = Lc - Kc = 39.96 dB, the ~40 dB
// ceiling visible throughout Table II of the paper.
func TestCrossingSNRByHand(t *testing.T) {
	nw := mesh3Net(t, xOnlyRouter(t))
	p := nw.Params()
	ev := NewEvaluator(nw)

	comms := []Communication{
		{Src: 3, Dst: 5}, // (0,1) -> (2,1): west-east through centre
		{Src: 1, Dst: 7}, // (1,0) -> (1,2): north-south through centre
	}
	res, details, err := ev.Detailed(comms, nil)
	if err != nil {
		t.Fatal(err)
	}

	linkLoss := p.PropagationLoss(hop)
	wantLoss := 2*linkLoss + p.CrossingLoss
	if math.Abs(res.WorstLossDB-wantLoss) > 1e-12 {
		t.Errorf("WorstLossDB = %v, want %v", res.WorstLossDB, wantLoss)
	}
	// Noise: Kc + aggressor loss before element (one link) + victim loss
	// after element (one link).
	wantNoise := p.CrossingCrosstalk + 2*linkLoss
	wantSNR := wantLoss - wantNoise // = Lc - Kc = 39.96
	if math.Abs(res.WorstSNRDB-wantSNR) > 1e-9 {
		t.Errorf("WorstSNRDB = %v, want %v", res.WorstSNRDB, wantSNR)
	}
	if math.Abs(wantSNR-39.96) > 1e-9 {
		t.Errorf("sanity: expected ceiling 39.96, computed %v", wantSNR)
	}
	for i, d := range details {
		if math.Abs(d.SNRDB-wantSNR) > 1e-9 {
			t.Errorf("detail %d SNR = %v, want %v", i, d.SNRDB, wantSNR)
		}
		if math.Abs(d.NoiseDB-wantNoise) > 1e-9 {
			t.Errorf("detail %d noise = %v, want %v", i, d.NoiseDB, wantNoise)
		}
	}
	if res.Conflicts != 0 {
		t.Errorf("Conflicts = %d, want 0", res.Conflicts)
	}
}

// TestPSELeakByHand checks the Kp,off leak of an OFF parallel PSE:
// expected SNR = Lp,off - Kp,off = 19.995 dB.
func TestPSELeakByHand(t *testing.T) {
	nw := mesh3Net(t, pseOnlyRouter(t))
	p := nw.Params()
	ev := NewEvaluator(nw)

	comms := []Communication{
		{Src: 3, Dst: 5},
		{Src: 1, Dst: 7},
	}
	res, err := ev.Evaluate(comms)
	if err != nil {
		t.Fatal(err)
	}
	linkLoss := p.PropagationLoss(hop)
	wantLoss := 2*linkLoss + p.PPSEOffLoss
	wantSNR := wantLoss - (p.PSEOffCrosstalk + 2*linkLoss)
	if math.Abs(res.WorstSNRDB-wantSNR) > 1e-9 {
		t.Errorf("WorstSNRDB = %v, want %v", res.WorstSNRDB, wantSNR)
	}
	if math.Abs(wantSNR-19.995) > 1e-9 {
		t.Errorf("sanity: expected 19.995, computed %v", wantSNR)
	}
}

// TestTwoAggressorsDoubleNoise checks linear noise accumulation: two
// aggressors through the same element halve the victim's SNR ratio
// (-3.01 dB) when both contribute equal noise.
func TestTwoAggressorsDoubleNoise(t *testing.T) {
	nw := mesh3Net(t, xOnlyRouter(t))
	ev := NewEvaluator(nw)

	one := []Communication{
		{Src: 3, Dst: 5}, // victim
		{Src: 1, Dst: 7}, // aggressor north->south
	}
	resOne, details, err := ev.Detailed(one, nil)
	if err != nil {
		t.Fatal(err)
	}
	victimOne := details[0].SNRDB

	two := []Communication{
		{Src: 3, Dst: 5}, // victim
		{Src: 1, Dst: 7}, // aggressor southbound
		{Src: 7, Dst: 1}, // aggressor northbound (distinct waveguide direction)
	}
	_, details2, err := ev.Detailed(two, nil)
	if err != nil {
		t.Fatal(err)
	}
	victimTwo := details2[0].SNRDB
	dropDB := victimOne - victimTwo
	if math.Abs(dropDB-10*math.Log10(2)) > 1e-9 {
		t.Errorf("two equal aggressors dropped SNR by %v dB, want 3.0103", dropDB)
	}
	_ = resOne
}

func TestConflictsCounted(t *testing.T) {
	nw := mesh3Net(t, xOnlyRouter(t))
	ev := NewEvaluator(nw)
	// Both communications enter the centre crossing from the west on the
	// same waveguide: contention, not crosstalk.
	comms := []Communication{
		{Src: 3, Dst: 5}, // W->E through centre
		{Src: 3, Dst: 1}, // E then N: W->N turn at centre, same entry
	}
	res, err := ev.Evaluate(comms)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicts != 2 {
		t.Errorf("Conflicts = %d, want 2 (one pair, both perspectives)", res.Conflicts)
	}
	if !math.IsInf(res.WorstSNRDB, 1) {
		t.Errorf("WorstSNRDB = %v, want +Inf (no crosstalk path)", res.WorstSNRDB)
	}
}

func TestSingleCommNoNoise(t *testing.T) {
	nw := mesh3Net(t, xOnlyRouter(t))
	ev := NewEvaluator(nw)
	res, details, err := ev.Detailed([]Communication{{Src: 0, Dst: 8}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.WorstSNRDB, 1) {
		t.Errorf("WorstSNRDB = %v, want +Inf", res.WorstSNRDB)
	}
	if !math.IsInf(details[0].NoiseDB, -1) {
		t.Errorf("NoiseDB = %v, want -Inf", details[0].NoiseDB)
	}
	if details[0].LossDB >= 0 {
		t.Errorf("LossDB = %v, want < 0", details[0].LossDB)
	}
}

func TestEvaluateErrors(t *testing.T) {
	nw := mesh3Net(t, xOnlyRouter(t))
	ev := NewEvaluator(nw)
	if _, err := ev.Evaluate(nil); err == nil {
		t.Error("accepted empty communication set")
	}
	if _, err := ev.Evaluate([]Communication{{Src: 2, Dst: 2}}); err == nil {
		t.Error("accepted src == dst")
	}
	if _, err := ev.Evaluate([]Communication{{Src: 0, Dst: 99}}); err == nil {
		t.Error("accepted out-of-range tile")
	}
}

func TestWorstIndicesPointAtCritical(t *testing.T) {
	nw := mesh3Net(t, xOnlyRouter(t))
	ev := NewEvaluator(nw)
	comms := []Communication{
		{Src: 0, Dst: 1}, // short, no interaction
		{Src: 3, Dst: 5}, // crossing pair below
		{Src: 1, Dst: 7},
	}
	res, details, err := ev.Detailed(comms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstSNRIdx != 1 && res.WorstSNRIdx != 2 {
		t.Errorf("WorstSNRIdx = %d, want 1 or 2", res.WorstSNRIdx)
	}
	if details[0].SNRDB <= details[1].SNRDB {
		t.Error("non-interacting communication should have higher SNR")
	}
	// Worst loss belongs to one of the 2-hop paths.
	if res.WorstLossIdx == 0 {
		t.Error("WorstLossIdx points at the 1-hop path")
	}
}

// TestWorstSNRMonotoneUnderInclusion: adding communications can only
// worsen (or keep) the worst-case SNR — existing victims gain aggressors.
func TestWorstSNRMonotoneUnderInclusion(t *testing.T) {
	nw, err := network.New(mustMesh4(t), router.Crux(), route.XY{}, photonic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(nw)
	all := []Communication{
		{Src: 0, Dst: 5}, {Src: 1, Dst: 9}, {Src: 2, Dst: 10},
		{Src: 15, Dst: 4}, {Src: 7, Dst: 8}, {Src: 12, Dst: 3},
	}
	prev := math.Inf(1)
	for k := 1; k <= len(all); k++ {
		res, err := ev.Evaluate(all[:k])
		if err != nil {
			t.Fatal(err)
		}
		if res.WorstSNRDB > prev+1e-9 {
			t.Errorf("worst SNR improved from %v to %v when adding communication %d", prev, res.WorstSNRDB, k)
		}
		prev = res.WorstSNRDB
	}
}

func mustMesh4(t *testing.T) *topo.Grid {
	t.Helper()
	g, err := topo.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCruxRealisticRange: on a real Crux mesh, a moderately loaded
// communication set lands in the SNR and loss ranges of Table II.
func TestCruxRealisticRange(t *testing.T) {
	nw, err := network.New(mustMesh4(t), router.Crux(), route.XY{}, photonic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(nw)
	comms := []Communication{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
		{Src: 4, Dst: 8}, {Src: 8, Dst: 12}, {Src: 5, Dst: 10},
		{Src: 10, Dst: 15}, {Src: 6, Dst: 9}, {Src: 13, Dst: 14},
		{Src: 3, Dst: 7}, {Src: 11, Dst: 7}, {Src: 14, Dst: 11},
	}
	res, err := ev.Evaluate(comms)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstLossDB > -1.0 || res.WorstLossDB < -5.0 {
		t.Errorf("WorstLossDB = %v, outside plausible Table II range", res.WorstLossDB)
	}
	if res.WorstSNRDB < 10 || res.WorstSNRDB > 41 {
		t.Errorf("WorstSNRDB = %v, outside plausible Table II range", res.WorstSNRDB)
	}
}

func TestEvaluateDeterministicAndCloneIndependent(t *testing.T) {
	nw, err := network.New(mustMesh4(t), router.Crux(), route.XY{}, photonic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(nw)
	comms := []Communication{{Src: 0, Dst: 15}, {Src: 3, Dst: 12}, {Src: 5, Dst: 6}}
	r1, err := ev.Evaluate(comms)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave an unrelated evaluation to dirty the buffers.
	if _, err := ev.Evaluate([]Communication{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	r2, err := ev.Evaluate(comms)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("re-evaluation differs: %+v vs %+v", r1, r2)
	}
	r3, err := NewEvaluator(nw).Evaluate(comms)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r3 {
		t.Errorf("fresh evaluator differs: %+v vs %+v", r1, r3)
	}
	if ev.Network() != nw {
		t.Error("Network() identity lost")
	}
}

// TestRebindMatchesFreshEvaluator moves one evaluator across networks
// with other coefficients (same element count, so the buffers stay) and
// another size, and back: each evaluation equals a fresh evaluator's on
// that network, bit for bit.
func TestRebindMatchesFreshEvaluator(t *testing.T) {
	hot := photonic.DefaultParams()
	hot.CrossingCrosstalk *= 0.5
	hot.PSEOnCrosstalk *= 0.5
	var nets []*network.Network
	for _, tc := range []struct {
		side int
		p    photonic.Params
	}{{4, photonic.DefaultParams()}, {4, hot}, {3, photonic.DefaultParams()}, {4, photonic.DefaultParams()}} {
		g, err := topo.NewMesh(tc.side, tc.side)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := network.New(g, router.Crux(), route.XY{}, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, nw)
	}
	comms := []Communication{{Src: 0, Dst: 8}, {Src: 2, Dst: 6}, {Src: 3, Dst: 5}, {Src: 7, Dst: 1}, {Src: 4, Dst: 0}}
	ev := NewEvaluator(nets[0])
	for i, nw := range nets {
		ev.Rebind(nw)
		got, err := ev.Evaluate(comms)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEvaluator(nw).Evaluate(comms)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, fmt.Sprintf("network %d (%s)", i, nw), got, want)
		if ev.Network() != nw {
			t.Fatalf("network %d: Network() is not the rebound network", i)
		}
	}
}

func TestDetailedReusesBuffer(t *testing.T) {
	nw := mesh3Net(t, xOnlyRouter(t))
	ev := NewEvaluator(nw)
	comms := []Communication{{Src: 0, Dst: 2}, {Src: 6, Dst: 8}}
	_, buf, err := ev.Detailed(comms, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, buf2, err := ev.Detailed(comms, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &buf[0] != &buf2[0] {
		t.Error("Detailed did not reuse the provided buffer")
	}
}

func TestEvaluateWeighted(t *testing.T) {
	nw := mesh3Net(t, xOnlyRouter(t))
	ev := NewEvaluator(nw)
	comms := []Communication{
		{Src: 0, Dst: 1}, // 1 hop
		{Src: 0, Dst: 8}, // 4 hops
	}
	// Unweighted baseline via equal weights.
	equal, err := ev.EvaluateWeighted(comms, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	short := nw.Path(0, 1).TotalLoss
	long := nw.Path(0, 8).TotalLoss
	wantEqual := (short + long) / 2
	if math.Abs(equal.AvgLossDB-wantEqual) > 1e-12 {
		t.Errorf("equal-weight AvgLossDB = %v, want %v", equal.AvgLossDB, wantEqual)
	}
	// Skewed weights pull the mean toward the heavy flow.
	skew, err := ev.EvaluateWeighted(comms, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantSkew := (3*short + long) / 4
	if math.Abs(skew.AvgLossDB-wantSkew) > 1e-12 {
		t.Errorf("skewed AvgLossDB = %v, want %v", skew.AvgLossDB, wantSkew)
	}
	// Plain Evaluate reports the unweighted mean too.
	plain, err := ev.Evaluate(comms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.AvgLossDB-wantEqual) > 1e-12 {
		t.Errorf("plain AvgLossDB = %v, want %v", plain.AvgLossDB, wantEqual)
	}
}

func TestEvaluateWeightedErrors(t *testing.T) {
	nw := mesh3Net(t, xOnlyRouter(t))
	ev := NewEvaluator(nw)
	comms := []Communication{{Src: 0, Dst: 1}}
	if _, err := ev.EvaluateWeighted(comms, []float64{1, 2}); err == nil {
		t.Error("accepted mismatched weight count")
	}
	if _, err := ev.EvaluateWeighted(comms, []float64{-1}); err == nil {
		t.Error("accepted negative weight")
	}
	if _, err := ev.EvaluateWeighted(comms, []float64{0}); err == nil {
		t.Error("accepted all-zero weights")
	}
	if _, err := ev.EvaluateWeighted(comms, []float64{math.NaN()}); err == nil {
		t.Error("accepted NaN weight")
	}
}

func TestEvaluateChanneledSeparatesAggressors(t *testing.T) {
	nw := mesh3Net(t, xOnlyRouter(t))
	ev := NewEvaluator(nw)
	comms := []Communication{
		{Src: 3, Dst: 5}, // crossing pair at the centre
		{Src: 1, Dst: 7},
	}
	same, err := ev.EvaluateChanneled(comms, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(same.WorstSNRDB, 1) {
		t.Fatal("same-channel pair should interact")
	}
	split, err := ev.EvaluateChanneled(comms, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(split.WorstSNRDB, 1) {
		t.Errorf("different channels should not interact; SNR = %v", split.WorstSNRDB)
	}
	// nil channels degrade to Evaluate.
	plain, err := ev.EvaluateChanneled(comms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.WorstSNRDB != same.WorstSNRDB {
		t.Error("nil channels differ from single-wavelength evaluation")
	}
	if _, err := ev.EvaluateChanneled(comms, []int{0}); err == nil {
		t.Error("accepted short channel vector")
	}
}

// TestEvaluateChanneledInputValidation pins the channeled path's input
// contract: the channel slice must be nil or exactly one entry per
// communication; channel values are opaque labels (any ints, including
// negative ones, compare only for equality); and the communication
// validation of the plain path applies unchanged.
func TestEvaluateChanneledInputValidation(t *testing.T) {
	nw := mesh3Net(t, xOnlyRouter(t))
	ev := NewEvaluator(nw)
	comms := []Communication{
		{Src: 3, Dst: 5},
		{Src: 1, Dst: 7},
	}

	// Length mismatches in both directions.
	for _, channel := range [][]int{{0}, {0, 1, 2}, {}} {
		if _, err := ev.EvaluateChanneled(comms, channel); err == nil {
			t.Errorf("accepted %d channels for %d communications", len(channel), len(comms))
		}
	}

	// Channel values are labels: negative and sparse values are legal and
	// only equality matters.
	neg, err := ev.EvaluateChanneled(comms, []int{-7, -7})
	if err != nil {
		t.Fatalf("negative channel labels rejected: %v", err)
	}
	dense, err := ev.EvaluateChanneled(comms, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if neg != dense {
		t.Errorf("channel labels are not opaque: %+v != %+v", neg, dense)
	}
	sparse, err := ev.EvaluateChanneled(comms, []int{1 << 30, -(1 << 30)})
	if err != nil {
		t.Fatalf("sparse channel labels rejected: %v", err)
	}
	if !math.IsInf(sparse.WorstSNRDB, 1) {
		t.Errorf("distinct labels should not interact; SNR = %v", sparse.WorstSNRDB)
	}

	// Communication validation still applies on the channeled path.
	bad := []struct {
		name  string
		comms []Communication
	}{
		{"empty set", nil},
		{"src == dst", []Communication{{Src: 2, Dst: 2}}},
		{"tile out of range", []Communication{{Src: 0, Dst: 99}}},
		{"negative tile", []Communication{{Src: -1, Dst: 3}}},
	}
	for _, tc := range bad {
		channel := make([]int, len(tc.comms))
		if _, err := ev.EvaluateChanneled(tc.comms, channel); err == nil {
			t.Errorf("%s: accepted invalid input", tc.name)
		}
	}

	// A failed call must not poison the evaluator's scratch state.
	again, err := ev.EvaluateChanneled(comms, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if again != dense {
		t.Errorf("evaluator state corrupted by rejected inputs: %+v != %+v", again, dense)
	}
}

// TestAbsentPairIsAnError: a pair-restricted network holds paths only for
// the pairs it was built for. Evaluating a communication on any other
// pair is an error, in the evaluator, in Incremental.Init and in
// Incremental.ApplyDelta, and a rejected delta leaves the seated set as
// it was.
func TestAbsentPairIsAnError(t *testing.T) {
	nw, err := network.NewForPairs(mustMesh4(t), router.Crux(), route.XY{}, photonic.DefaultParams(),
		[][2]topo.TileID{{0, 5}, {5, 10}, {3, 12}})
	if err != nil {
		t.Fatal(err)
	}
	built := []Communication{{Src: 0, Dst: 5}, {Src: 5, Dst: 10}, {Src: 3, Dst: 12}}
	absent := []Communication{{Src: 0, Dst: 5}, {Src: 10, Dst: 5}}
	const want = "analysis: communication 1: the network holds no path 10->5"

	ev := NewEvaluator(nw)
	res, err := ev.Evaluate(built)
	if err != nil {
		t.Fatalf("built pairs: %v", err)
	}
	if _, err := ev.Evaluate(absent); err == nil || err.Error() != want {
		t.Errorf("Evaluate: error %v, want %q", err, want)
	}

	inc := NewIncremental(nw)
	if _, err := inc.Init(absent); err == nil || err.Error() != want {
		t.Errorf("Init: error %v, want %q", err, want)
	}
	if got, err := inc.Init(built); err != nil || got != res {
		t.Fatalf("Init(built) = %+v, %v; want %+v", got, err, res)
	}
	if _, err := inc.ApplyDelta([]int{0, 1}, []Communication{{Src: 3, Dst: 12}, {Src: 12, Dst: 3}}); err == nil ||
		err.Error() != "analysis: communication 1: the network holds no path 12->3" {
		t.Errorf("ApplyDelta: error %v", err)
	}
	if inc.Result() != res {
		t.Errorf("a rejected delta changed the result: %+v, want %+v", inc.Result(), res)
	}
	if got, err := inc.ApplyDelta([]int{1}, []Communication{{Src: 0, Dst: 5}}); err != nil {
		t.Errorf("ApplyDelta onto a built pair: %v", err)
	} else if want, _ := ev.Evaluate([]Communication{{Src: 0, Dst: 5}, {Src: 0, Dst: 5}, {Src: 3, Dst: 12}}); got != want {
		t.Errorf("ApplyDelta after a rejected delta = %+v, want %+v", got, want)
	}
}
