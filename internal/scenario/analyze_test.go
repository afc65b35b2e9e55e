package scenario

import (
	"encoding/json"
	"reflect"
	"testing"

	"phonocmap/internal/config"
)

// fullAnalyses returns an analyses block exercising every pipeline
// stage, sized for fast tests.
func fullAnalyses() *AnalysesSpec {
	return &AnalysesSpec{
		WDM:          &WDMSpec{},
		Power:        &PowerSpec{},
		Robustness:   &RobustnessSpec{Samples: 5},
		LinkFailures: &LinkFailuresSpec{},
		Sim:          &SimSpec{DurationNs: 20_000, LoadScales: []float64{0.5, 1}},
	}
}

func TestAnalyzeFullReport(t *testing.T) {
	spec := Spec{
		App: config.AppSpec{Builtin: "PIP"},
		// Link-failure analysis needs an all-turn router.
		Arch:      config.ArchSpec{Router: "cygnus", Routing: "bfs"},
		Algorithm: "rs",
		Budget:    200,
		Analyses:  fullAnalyses(),
	}
	res, err := execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("no report despite a full analyses block")
	}
	if rep.WDM == nil || rep.WDM.Channels < 1 {
		t.Errorf("wdm section %+v", rep.WDM)
	}
	if rep.Power == nil {
		t.Fatal("power section missing")
	}
	if rep.Power.ChannelPowerDBm != -20-res.Run.Score.WorstLossDB {
		t.Errorf("channel power %v inconsistent with loss %v", rep.Power.ChannelPowerDBm, res.Run.Score.WorstLossDB)
	}
	if rep.Robustness == nil || rep.Robustness.Samples != 5 {
		t.Errorf("robustness section %+v", rep.Robustness)
	}
	if rep.Robustness.WorstSNRDB > rep.Robustness.MeanSNRDB {
		t.Errorf("worst variation SNR %v above the mean %v", rep.Robustness.WorstSNRDB, rep.Robustness.MeanSNRDB)
	}
	if rep.LinkFailures == nil || rep.LinkFailures.Cuts == 0 {
		t.Errorf("link-failure section %+v", rep.LinkFailures)
	}
	if rep.Sim == nil || len(rep.Sim.Points) != 2 {
		t.Fatalf("sim section %+v", rep.Sim)
	}
	if rep.Sim.Points[0].LoadScale != 0.5 || rep.Sim.Points[1].LoadScale != 1 {
		t.Errorf("sim load points %+v", rep.Sim.Points)
	}

	// The whole report must survive JSON (the wire and cache format): no
	// NaN/Inf anywhere.
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report not JSON-serializable: %v", err)
	}

	// The pipeline is deterministic: a second run reproduces the report
	// bit for bit.
	res2, err := execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Report, res2.Report) {
		t.Error("re-running the identical scenario changed the report")
	}
	if !res2.Run.Mapping.Equal(res.Run.Mapping) || res2.Run.Score != res.Run.Score {
		t.Error("re-running the identical scenario changed the optimization result")
	}
}

func TestAnalyzeSubsetLeavesOthersNil(t *testing.T) {
	res, err := execute(Spec{
		App:       config.AppSpec{Builtin: "PIP"},
		Algorithm: "rs",
		Budget:    150,
		Analyses:  &AnalysesSpec{Power: &PowerSpec{}, Robustness: &RobustnessSpec{Samples: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil || rep.Power == nil || rep.Robustness == nil {
		t.Fatalf("requested sections missing: %+v", rep)
	}
	if rep.WDM != nil || rep.LinkFailures != nil || rep.Sim != nil {
		t.Errorf("unrequested sections present: %+v", rep)
	}
}

// TestSimSaturationDetection drives the simulator far past saturation
// and checks the report notices.
func TestSimSaturationDetection(t *testing.T) {
	res, err := execute(Spec{
		App:       config.AppSpec{Builtin: "PIP"},
		Algorithm: "rs",
		Budget:    100,
		Analyses: &AnalysesSpec{
			Sim: &SimSpec{DurationNs: 50_000, LoadScales: []float64{0.5, 200}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := res.Report.Sim
	if sim == nil {
		t.Fatal("sim section missing")
	}
	if sim.SaturationLoad >= 200 {
		t.Errorf("saturation load %v: 200x overload not detected", sim.SaturationLoad)
	}
	if sim.Points[1].DeliveredFraction >= SaturationDeliveredFraction {
		t.Errorf("delivered fraction %v at 200x load", sim.Points[1].DeliveredFraction)
	}
}

// TestRunDegradedScenario proves a declaratively degraded architecture
// flows through the whole pipeline and matches the programmatic
// topo.Degrade construction bit for bit.
func TestRunDegradedScenario(t *testing.T) {
	spec := Spec{
		App:       config.AppSpec{Builtin: "PIP"},
		Arch:      config.ArchSpec{Router: "cygnus", Routing: "bfs", FailedLinks: [][2]int{{1, 2}}},
		Algorithm: "rs",
		Budget:    200,
	}
	res, err := execute(spec)
	if err != nil {
		t.Fatal(err)
	}

	healthy := spec
	healthy.Arch.FailedLinks = nil
	hres, err := execute(healthy)
	if err != nil {
		t.Fatal(err)
	}
	// Same seeds, different networks: the degraded run must differ (the
	// cut forces detours through extra elements).
	if res.Run.Score == hres.Run.Score {
		t.Error("degraded and healthy runs scored identically — failed_links ignored?")
	}

	// Determinism across invocations.
	res2, err := execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Run.Mapping.Equal(res.Run.Mapping) || res2.Run.Score != res.Run.Score || res2.Run.Evals != res.Run.Evals {
		t.Error("degraded scenario is not deterministic")
	}
}

// TestLinkFailuresCountOnlyMappedCommunications: on a 3x3 mesh with link
// 0-1 already failed, cutting 0-3 isolates tile 0. At search seeds 3, 4,
// 5 and 7 the winning mapping leaves tile 0 empty, so the cut
// disconnects no mapped communication: it must not count as unreachable,
// and its figures must join the worst case.
func TestLinkFailuresCountOnlyMappedCommunications(t *testing.T) {
	for _, seed := range []int64{3, 4, 5, 7} {
		spec := Spec{
			App:       config.AppSpec{Builtin: "PIP"},
			Arch:      config.ArchSpec{Router: "cygnus", Routing: "bfs", FailedLinks: [][2]int{{0, 1}}},
			Algorithm: "rs",
			Seed:      seed,
			Analyses:  &AnalysesSpec{LinkFailures: &LinkFailuresSpec{}},
		}
		res, err := execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		for task, tile := range res.Run.Mapping {
			if tile == 0 {
				t.Fatalf("seed %d: task %d sits on tile 0; the case needs it empty", seed, task)
			}
		}
		lf := res.Report.LinkFailures
		if lf.Cuts != 11 || lf.Unreachable != 0 {
			t.Errorf("seed %d: %d cuts, %d unreachable; want 11 cuts, none unreachable", seed, lf.Cuts, lf.Unreachable)
		}
	}
}
