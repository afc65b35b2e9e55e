package wdm

import (
	"math/rand"
	"testing"

	"phonocmap/internal/analysis"
	"phonocmap/internal/cg"
	"phonocmap/internal/core"
	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

func testNet(t *testing.T, w, h int) *network.Network {
	t.Helper()
	g, err := topo.NewMesh(w, h)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := network.New(g, router.Crux(), route.XY{}, photonic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestAllocateValidAssignment(t *testing.T) {
	nw := testNet(t, 4, 4)
	app := cg.MustApp("VOPD")
	m := core.IdentityMapping(app.NumTasks())
	a, err := Allocate(nw, app, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Channel) != app.NumEdges() {
		t.Fatalf("channels = %d entries, want %d", len(a.Channel), app.NumEdges())
	}
	if a.Channels < 1 {
		t.Errorf("Channels = %d", a.Channels)
	}
	for i, c := range a.Channel {
		if c < 0 || c >= a.Channels {
			t.Errorf("edge %d channel %d out of [0,%d)", i, c, a.Channels)
		}
	}
}

func TestColoringRespectsConflicts(t *testing.T) {
	nw := testNet(t, 4, 4)
	app := cg.MustApp("MPEG-4")
	m := core.IdentityMapping(app.NumTasks())
	a, err := Allocate(nw, app, m)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the conflict graph and check no conflicting pair shares a
	// channel.
	edges := app.Edges()
	comms := make([]analysis.Communication, len(edges))
	for i, e := range edges {
		comms[i] = analysis.Communication{Src: m[e.Src], Dst: m[e.Dst]}
	}
	adj, conflicts, err := conflictGraph(nw, comms)
	if err != nil {
		t.Fatal(err)
	}
	if conflicts != a.Conflicts {
		t.Errorf("Conflicts = %d, recomputed %d", a.Conflicts, conflicts)
	}
	for i := range adj {
		for j := range adj[i] {
			if adj[i][j] && a.Channel[i] == a.Channel[j] {
				t.Errorf("conflicting edges %d and %d share channel %d", i, j, a.Channel[i])
			}
		}
	}
	// MPEG-4's SDRAM hub forces shared ejection segments: more than one
	// wavelength must be required for an identity placement.
	if a.Channels < 2 {
		t.Errorf("MPEG-4 identity mapping needs %d channel(s); expected >= 2", a.Channels)
	}
}

func TestWDMImprovesWorstSNR(t *testing.T) {
	nw := testNet(t, 4, 4)
	app := cg.MustApp("MPEG-4")
	m := core.IdentityMapping(app.NumTasks())

	prob, err := core.NewProblem(app, nw, core.MaximizeSNR)
	if err != nil {
		t.Fatal(err)
	}
	single, err := prob.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(nw, app, m)
	if err != nil {
		t.Fatal(err)
	}
	wdmRes, err := Evaluate(nw, app, m, a)
	if err != nil {
		t.Fatal(err)
	}
	// Channelization removes same-wavelength aggressors, so the worst
	// SNR can only improve or stay equal.
	if wdmRes.WorstSNRDB < single.WorstSNRDB-1e-9 {
		t.Errorf("WDM SNR %v worse than single-wavelength %v", wdmRes.WorstSNRDB, single.WorstSNRDB)
	}
	// And contention disappears by construction of the coloring.
	if wdmRes.Conflicts != 0 {
		t.Errorf("WDM evaluation still has %d conflicts", wdmRes.Conflicts)
	}
}

func TestAllocateDeterministic(t *testing.T) {
	app := cg.MustApp("Wavelet")
	nw := testNet(t, 5, 5)
	m, err := core.RandomMapping(rand.New(rand.NewSource(3)), app.NumTasks(), nw.NumTiles())
	if err != nil {
		t.Fatal(err)
	}
	a1, err := Allocate(nw, app, m)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Allocate(nw, app, m)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Channels != a2.Channels || a1.Conflicts != a2.Conflicts {
		t.Error("allocation not deterministic")
	}
	for i := range a1.Channel {
		if a1.Channel[i] != a2.Channel[i] {
			t.Fatal("channel vectors differ")
		}
	}
}

func TestChannelCountDependsOnMapping(t *testing.T) {
	// A compact pipeline placement needs fewer wavelengths than a
	// scattered one: the channel count is a mapping-quality metric.
	nw := testNet(t, 4, 4)
	pipe, err := cg.Pipeline(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Chain along a snake: consecutive tasks adjacent, disjoint links.
	snake := core.Mapping{0, 1, 2, 3, 7, 6, 5, 4}
	aGood, err := Allocate(nw, pipe, snake)
	if err != nil {
		t.Fatal(err)
	}
	// All tasks in one column: every flow fights over the same vertical
	// links.
	column := core.Mapping{0, 4, 8, 12, 13, 9, 5, 1}
	aBad, err := Allocate(nw, pipe, column)
	if err != nil {
		t.Fatal(err)
	}
	if aGood.Channels > aBad.Channels {
		t.Errorf("snake needs %d channels, column %d; expected snake <= column",
			aGood.Channels, aBad.Channels)
	}
	if aGood.Channels != 1 {
		t.Errorf("disjoint snake should need exactly 1 channel, got %d", aGood.Channels)
	}
}

// TestAllocateErrors: both entry points reject every mapping that is
// not one distinct on-network tile per task of the app (Eqs. 5–6), and
// none of them panics.
func TestAllocateErrors(t *testing.T) {
	nw := testNet(t, 3, 3)
	app := cg.MustApp("PIP")
	n := app.NumTasks()
	valid, err := Allocate(nw, app, core.IdentityMapping(n))
	if err != nil {
		t.Fatal(err)
	}
	moved := func(task int, tile topo.TileID) core.Mapping {
		m := core.IdentityMapping(n)
		m[task] = tile
		return m
	}
	cases := []struct {
		name string
		m    core.Mapping
	}{
		{"nil", nil},
		{"n-1 tasks", core.IdentityMapping(n - 1)},
		{"n+1 tasks", core.IdentityMapping(n + 1)},
		{"tile -1", moved(3, -1)},
		{"tile NumTiles", moved(3, topo.TileID(nw.NumTiles()))},
		{"duplicate tile", moved(2, 0)},
	}
	for _, tc := range cases {
		rejects(t, "Allocate "+tc.name, func() error {
			_, err := Allocate(nw, app, tc.m)
			return err
		})
		rejects(t, "Evaluate "+tc.name, func() error {
			_, err := Evaluate(nw, app, tc.m, valid)
			return err
		})
	}
	a := Assignment{Channel: []int{0}}
	if _, err := Evaluate(nw, app, core.IdentityMapping(n), a); err == nil {
		t.Error("Evaluate accepted wrong-length assignment")
	}
}

// rejects fails the test unless f returns an error; a panic is reported
// as a failure of that case instead of aborting the table.
func rejects(t *testing.T, name string, f func() error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panicked: %v", name, r)
		}
	}()
	if err := f(); err == nil {
		t.Errorf("%s: accepted", name)
	}
}
