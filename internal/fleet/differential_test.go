package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"phonocmap/client"
	"phonocmap/internal/config"
	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
	"phonocmap/internal/service"
	"phonocmap/internal/sweep"
)

// newTestFleet boots n real phonocmap-serve instances behind httptest
// and a coordinator over all of them. The per-node clients poll fast
// and fail fast — the coordinator owns retry/migration, so node-level
// persistence would only slow failover down.
func newTestFleet(t *testing.T, n int, mutate func(*Config)) (*Runner, []*httptest.Server) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		srv := service.New(service.Config{Workers: 1})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		servers[i] = ts
		urls[i] = ts.URL
	}
	cfg := Config{
		Servers:       urls,
		ProbeInterval: 10 * time.Second, // quiet during tests; dispatch failures drive the state machine
		ClientOptions: []client.Option{
			client.WithPollInterval(5 * time.Millisecond),
			client.WithRetries(1, 5*time.Millisecond),
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	fr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fr.Close() })
	return fr, servers
}

// jsonDiff compares two values through their canonical JSON — the exact
// equivalence the wire can express (same technique as the client
// package's differential suite).
func jsonDiff(t *testing.T, label string, got, want any) {
	t.Helper()
	gb, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.MarshalIndent(want, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Errorf("%s: fleet and local results differ\nfleet:\n%s\nlocal:\n%s", label, gb, wb)
	}
}

// diffGrid is the differential sweep: 8 cells spanning topologies,
// objectives and algorithms, with analyses — the same shape the client
// package's differential sweep pins against a single server.
func diffGrid() sweep.Spec {
	return sweep.Spec{
		Apps:       []config.AppSpec{{Builtin: "PIP"}},
		Archs:      []config.ArchSpec{{Topology: "mesh"}, {Topology: "torus"}},
		Objectives: []string{"snr", "loss"},
		Algorithms: []string{"rs", "rpbla"},
		Budgets:    []int{150},
		Seeds:      []int64{1},
		Analyses: &scenario.AnalysesSpec{
			WDM:   &scenario.WDMSpec{},
			Power: &scenario.PowerSpec{},
		},
	}
}

// TestDifferentialFleetSweep is the scale-invariance guarantee: the
// same grid swept through fleets of 1, 2 and 3 nodes produces a
// SweepResult — cells and every aggregation — byte-identical to a
// LocalRunner sweep. Fleet size must be invisible in the output.
func TestDifferentialFleetSweep(t *testing.T) {
	grid := diffGrid()
	local, err := runner.NewLocal().RunSweep(context.Background(), grid, runner.SweepOptions{})
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	for _, nodes := range []int{1, 2, 3} {
		t.Run(map[int]string{1: "one-node", 2: "two-nodes", 3: "three-nodes"}[nodes], func(t *testing.T) {
			fr, _ := newTestFleet(t, nodes, nil)
			got, err := fr.RunSweep(context.Background(), grid, runner.SweepOptions{})
			if err != nil {
				t.Fatalf("fleet sweep: %v", err)
			}
			if len(got.Cells) != 8 {
				t.Fatalf("fleet sweep has %d cells, want 8", len(got.Cells))
			}
			for _, cell := range got.Cells {
				if cell.Error != "" {
					t.Fatalf("fleet cell %d failed: %s", cell.Index, cell.Error)
				}
				if cell.Report == nil {
					t.Fatalf("fleet cell %d missing its analysis report", cell.Index)
				}
			}
			jsonDiff(t, "sweep", got, local)
			if d := fr.metrics.dispatched.Value(); d < 8 {
				t.Errorf("dispatched %d cells, want >= 8", d)
			}
		})
	}
}

// TestDifferentialFleetNodeKill kills one of two nodes mid-sweep: its
// in-flight and future cells must migrate to the survivor and the final
// result must still be byte-identical to the local reference — failure
// handling must be invisible in the output too.
func TestDifferentialFleetNodeKill(t *testing.T) {
	grid := diffGrid()
	local, err := runner.NewLocal().RunSweep(context.Background(), grid, runner.SweepOptions{})
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}

	fr, servers := newTestFleet(t, 2, func(cfg *Config) {
		// Event streams hold connections open, which would make the
		// mid-sweep Close below wait on them; plain polling keeps every
		// request short-lived.
		cfg.ClientOptions = append(cfg.ClientOptions, client.WithoutEvents())
		// One failed dispatch marks a node down. With more, the check
		// below would depend on scheduling: the dead node may see only
		// one dispatch before the sweep ends.
		cfg.DownAfter = 1
	})

	// Kill the first node as soon as the first cell settles: whatever
	// it is running or later receives fails over to the survivor.
	// Dispatch breaks load ties toward the lower index, so at least one
	// of the cells left is sent to the dead node, however the two sweep
	// workers interleave. The second node would see no dispatch at all
	// whenever the workers never overlapped after the kill.
	var once sync.Once
	opts := runner.SweepOptions{
		OnCellDone: func(runner.SweepCellResult) {
			once.Do(func() {
				servers[0].CloseClientConnections()
				servers[0].Close()
			})
		},
	}
	got, err := fr.RunSweep(context.Background(), grid, opts)
	if err != nil {
		t.Fatalf("fleet sweep with node kill: %v", err)
	}
	for _, cell := range got.Cells {
		if cell.Error != "" {
			t.Fatalf("fleet cell %d failed despite migration: %s", cell.Index, cell.Error)
		}
	}
	jsonDiff(t, "sweep-node-kill", got, local)

	// The dead node must be marked down by the dispatch-failure path
	// (the prober is quiet at this interval), and at least one cell must
	// have migrated — the sweep ran 8 cells on 2 workers, so work was
	// outstanding when the node died. A migration follows a failed
	// dispatch, which at DownAfter 1 marks the node down.
	if st := nodeState(fr.nodes[0].state.Load()); st != stateDown {
		t.Errorf("killed node state = %v, want down", st)
	}
	if m := fr.metrics.migrated.Value(); m < 1 {
		t.Errorf("migrated = %d, want >= 1", m)
	}
}

// TestDifferentialFleetScenario: single scenarios go through the same
// dispatch path and must match local execution byte-for-byte (wall
// clock aside).
func TestDifferentialFleetScenario(t *testing.T) {
	fr, _ := newTestFleet(t, 2, nil)
	spec := scenario.Spec{
		App: config.AppSpec{Builtin: "PIP"}, Objective: "snr",
		Algorithm: "rs", Budget: 300, Seed: 1,
	}
	got, err := fr.RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatalf("fleet scenario: %v", err)
	}
	want, err := runner.NewLocal().RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatalf("local scenario: %v", err)
	}
	got.DurationMs, want.DurationMs = 0, 0
	stripTraceTiming(got.Trace)
	stripTraceTiming(want.Trace)
	jsonDiff(t, "scenario", got, want)
}

// stripTraceTiming zeroes a trace's execution-local wall-clock fields so
// the deterministic remainder can be compared byte-for-byte.
func stripTraceTiming(tr *scenario.RunTrace) {
	tr.TimeToBestMs, tr.DurationMs, tr.EvalsPerSec = 0, 0, 0
	for i := range tr.Events {
		tr.Events[i].AtMs = 0
	}
	for i := range tr.Islands {
		tr.Islands[i].EvalsPerSec = 0
	}
}

// TestDifferentialFleetDiscovery: discovery answers are identical to
// the local backend's, whichever node serves them.
func TestDifferentialFleetDiscovery(t *testing.T) {
	fr, _ := newTestFleet(t, 2, nil)
	local := runner.NewLocal()
	ctx := context.Background()

	apps, err := fr.Apps(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lApps, _ := local.Apps(ctx)
	jsonDiff(t, "apps", apps, lApps)

	algos, err := fr.Algorithms(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lAlgos, _ := local.Algorithms(ctx)
	jsonDiff(t, "algorithms", algos, lAlgos)

	routers, err := fr.Routers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lRouters, _ := local.Routers(ctx)
	jsonDiff(t, "routers", routers, lRouters)

	topos, err := fr.Topologies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lTopos, _ := local.Topologies(ctx)
	jsonDiff(t, "topologies", topos, lTopos)
}

// TestFleetDedup: cells sharing a content key are executed once — the
// duplicate budget axis below expands to pairwise-identical cells, and
// the coordinator must dispatch each unique computation exactly once
// while the output still matches the local reference, which runs every
// duplicate independently (and deterministically identically).
func TestFleetDedup(t *testing.T) {
	grid := sweep.Spec{
		Apps:       []config.AppSpec{{Builtin: "PIP"}},
		Objectives: []string{"snr"},
		Algorithms: []string{"rs"},
		Budgets:    []int{150, 150},
		Seeds:      []int64{1, 2},
	}
	fr, _ := newTestFleet(t, 2, nil)
	got, err := fr.RunSweep(context.Background(), grid, runner.SweepOptions{})
	if err != nil {
		t.Fatalf("fleet sweep: %v", err)
	}
	local, err := runner.NewLocal().RunSweep(context.Background(), grid, runner.SweepOptions{})
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	jsonDiff(t, "dedup sweep", got, local)
	if d := fr.metrics.deduped.Value(); d != 2 {
		t.Errorf("deduped = %d, want 2 (4 cells, 2 unique keys)", d)
	}
	if d := fr.metrics.dispatched.Value(); d != 2 {
		t.Errorf("dispatched = %d, want 2", d)
	}
}
