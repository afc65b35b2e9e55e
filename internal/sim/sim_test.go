package sim

import (
	"math"
	"testing"

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

// twoTaskApp is a single flow between two tasks at the given bandwidth.
func twoTaskApp(t *testing.T, bw float64) *cg.Graph {
	t.Helper()
	g := cg.New("pair")
	a := g.MustAddTask("a")
	b := g.MustAddTask("b")
	g.MustAddEdge(a, b, bw)
	return g
}

func TestConfigNormalize(t *testing.T) {
	var c Config
	c.Normalize()
	if c.PacketBits != 4096 || c.LinkBandwidthGbps != 40 || c.LoadScale != 1 || c.Seed != 1 {
		t.Errorf("defaults: %+v", c)
	}
	if c.WarmupNs != c.DurationNs/10 {
		t.Errorf("warmup default: %+v", c)
	}
}

func TestSingleFlowNoContention(t *testing.T) {
	nw := testNet(t, 3, 3)
	app := twoTaskApp(t, 100) // 100 MB/s = 0.8 Gb/s, far below 40 Gb/s
	m := core.Mapping{0, 1}   // adjacent tiles, 1 hop
	st, err := Run(nw, app, m, Config{DurationNs: 200_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.PacketsDelivered == 0 {
		t.Fatal("no packets delivered")
	}
	// Without contention, every packet sees exactly setup + serialization.
	want := 1.0 + 4096.0/40.0 // 1 ns setup + 102.4 ns serialization
	if math.Abs(st.MeanLatencyNs-want) > 1e-9 {
		t.Errorf("MeanLatencyNs = %v, want %v", st.MeanLatencyNs, want)
	}
	if st.MeanWaitNs != 0 {
		t.Errorf("MeanWaitNs = %v, want 0", st.MeanWaitNs)
	}
	if st.BlockedReservations != 0 {
		t.Errorf("BlockedReservations = %d", st.BlockedReservations)
	}
	// Throughput approximates the offered 0.8 Gb/s within Poisson noise.
	if st.OfferedGbps != 0.8 {
		t.Errorf("OfferedGbps = %v, want 0.8", st.OfferedGbps)
	}
	if st.ThroughputGbps < 0.5*st.OfferedGbps || st.ThroughputGbps > 1.5*st.OfferedGbps {
		t.Errorf("ThroughputGbps = %v vs offered %v", st.ThroughputGbps, st.OfferedGbps)
	}
}

func TestLatencyGrowsWithDistance(t *testing.T) {
	nw := testNet(t, 4, 4)
	app := twoTaskApp(t, 100)
	near, err := Run(nw, app, core.Mapping{0, 1}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	far, err := Run(nw, app, core.Mapping{0, 15}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 6 hops vs 1 hop: +5 ns of setup latency.
	if far.MeanLatencyNs <= near.MeanLatencyNs {
		t.Errorf("far latency %v not above near %v", far.MeanLatencyNs, near.MeanLatencyNs)
	}
	if math.Abs((far.MeanLatencyNs-near.MeanLatencyNs)-5) > 1e-9 {
		t.Errorf("latency delta = %v, want 5", far.MeanLatencyNs-near.MeanLatencyNs)
	}
}

func TestContentionCreatesWaiting(t *testing.T) {
	nw := testNet(t, 3, 3)
	// Two heavy flows forced through the same west-east link 0->1.
	g := cg.New("clash")
	a := g.MustAddTask("a")
	b := g.MustAddTask("b")
	c := g.MustAddTask("c")
	g.MustAddEdge(a, b, 2000)
	g.MustAddEdge(a, c, 2000)
	// a at tile 0; b at 1; c at 2: both flows use link 0->1.
	m := core.Mapping{0, 1, 2}
	st, err := Run(nw, g, m, Config{DurationNs: 300_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.BlockedReservations == 0 {
		t.Error("heavy shared-link load produced no blocking")
	}
	if st.MeanWaitNs <= 0 {
		t.Errorf("MeanWaitNs = %v, want > 0", st.MeanWaitNs)
	}
	if st.MaxLinkUtilization <= 0.5 {
		t.Errorf("MaxLinkUtilization = %v, want > 0.5 under heavy load", st.MaxLinkUtilization)
	}
	if st.MaxLinkUtilization > 1 {
		t.Errorf("utilization above 1: %v", st.MaxLinkUtilization)
	}
}

func TestOverloadSaturates(t *testing.T) {
	nw := testNet(t, 3, 3)
	app := twoTaskApp(t, 100)
	m := core.Mapping{0, 1}
	light, err := Run(nw, app, m, Config{Seed: 2, LoadScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(nw, app, m, Config{Seed: 2, LoadScale: 100}) // 80 Gb/s offered on a 40 Gb/s link
	if err != nil {
		t.Fatal(err)
	}
	if heavy.ThroughputGbps <= light.ThroughputGbps {
		t.Error("heavy load delivered less than light load")
	}
	// Delivered cannot exceed the line rate (plus boundary slack).
	if heavy.ThroughputGbps > 42 {
		t.Errorf("throughput %v exceeds the 40 Gb/s line rate", heavy.ThroughputGbps)
	}
	if heavy.MeanWaitNs <= light.MeanWaitNs {
		t.Error("overload did not increase waiting")
	}
}

func TestDeterministicRuns(t *testing.T) {
	nw := testNet(t, 4, 4)
	app := cg.MustApp("MWD")
	m := core.IdentityMapping(app.NumTasks())
	a, err := Run(nw, app, m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(nw, app, m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed differs:\n%+v\n%+v", a, b)
	}
	c, err := Run(nw, app, m, Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical stats (suspicious)")
	}
}

func TestRunValidation(t *testing.T) {
	nw := testNet(t, 3, 3)
	app := twoTaskApp(t, 100)
	if _, err := Run(nw, app, core.Mapping{0, 0}, Config{}); err == nil {
		t.Error("accepted non-injective mapping")
	}
	if _, err := Run(nw, app, core.Mapping{0}, Config{}); err == nil {
		t.Error("accepted short mapping")
	}
	if _, err := Run(nw, app, core.Mapping{0, 1}, Config{WarmupNs: 50, DurationNs: 40}); err == nil {
		t.Error("accepted warmup beyond duration")
	}
	if _, err := Run(nw, app, core.Mapping{0, 1}, Config{LoadScale: -1}); err == nil {
		t.Error("accepted negative load")
	}
	if _, err := Run(nw, app, core.Mapping{0, 1}, Config{LoadScale: math.NaN()}); err == nil {
		t.Error("accepted NaN load")
	}
	if _, err := Run(nw, app, core.Mapping{0, 1}, Config{PacketBits: math.Inf(1)}); err == nil {
		t.Error("accepted infinite packets")
	}
	zero := twoTaskApp(t, 0)
	if _, err := Run(nw, zero, core.Mapping{0, 1}, Config{}); err == nil {
		t.Error("accepted zero-bandwidth-only app")
	}
}

func TestBenchmarkAppEndToEnd(t *testing.T) {
	// Full pipeline: optimize a mapping, then simulate it; the optimized
	// placement should not be slower than the identity placement.
	nw := testNet(t, 4, 4)
	app := cg.MustApp("VOPD")
	prob, err := core.NewProblem(app, nw, core.MinimizeLoss)
	if err != nil {
		t.Fatal(err)
	}
	ident := core.IdentityMapping(app.NumTasks())
	idStats, err := Run(nw, app, ident, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	_ = prob
	if idStats.PacketsDelivered == 0 {
		t.Fatal("identity run delivered nothing")
	}
	if idStats.MeanLinkUtilization <= 0 {
		t.Error("no link utilization recorded")
	}
	if idStats.P95LatencyNs < idStats.P50LatencyNs || idStats.MaxLatencyNs < idStats.P95LatencyNs {
		t.Error("latency percentiles out of order")
	}
}
