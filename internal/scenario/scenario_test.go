package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"phonocmap/internal/cg"
	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/search"
)

// preRefactorRun replicates, verbatim, the spec-to-problem construction
// every layer hand-rolled before the scenario compiler existed (CLI
// cmdMap, service buildProblem, sweep Cell.BuildProblem, experiments
// problemFor): build the app, normalize and build the arch, parse the
// objective, bind the problem, run one seeded exploration. The compiler
// must reproduce it bit for bit.
func preRefactorRun(t *testing.T, exp config.Experiment) core.RunResult {
	t.Helper()
	exp.Normalize()
	app, err := exp.App.Build()
	if err != nil {
		t.Fatal(err)
	}
	exp.Arch.Normalize(app.NumTasks())
	nw, err := exp.Arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := core.ParseObjective(exp.Objective)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.NewProblem(app, nw, obj)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := search.New(exp.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExploration(prob, core.Options{Budget: exp.Budget, Seed: exp.Seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(alg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCompileMatchesDirectConstruction pins the refactor: for a fixed
// grid of apps, architectures and algorithms, the scenario pipeline
// produces results bit-identical to the pre-refactor hand-rolled
// construction (identical mapping, score, eval count and derived seed).
func TestCompileMatchesDirectConstruction(t *testing.T) {
	apps := []string{"PIP", "VOPD"}
	archs := []config.ArchSpec{
		{}, // auto-sized reference mesh
		{Topology: "torus"},
		{Topology: "mesh", Router: "cygnus", Routing: "bfs"},
	}
	algos := []string{"rs", "rpbla"}
	for _, app := range apps {
		for _, arch := range archs {
			for _, algo := range algos {
				exp := config.Experiment{
					App:       config.AppSpec{Builtin: app},
					Arch:      arch,
					Objective: "snr",
					Algorithm: algo,
					Budget:    300,
					Seed:      7,
				}
				want := preRefactorRun(t, exp)
				got, err := execute(Spec{
					App:       exp.App,
					Arch:      arch,
					Objective: "snr",
					Algorithm: algo,
					Budget:    300,
					Seed:      7,
				})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", app, arch.Topology, algo, err)
				}
				if !got.Run.Mapping.Equal(want.Mapping) || got.Run.Score != want.Score ||
					got.Run.Evals != want.Evals || got.Run.Seed != want.Seed {
					t.Errorf("%s/%s/%s: pipeline diverges from direct construction:\n got %+v\nwant %+v",
						app, arch.Topology, algo, got.Run, want)
				}
				if got.Report != nil {
					t.Errorf("%s/%s/%s: report without an analyses block", app, arch.Topology, algo)
				}
			}
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	s := Spec{App: config.AppSpec{Builtin: "VOPD"}}
	g, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 16 {
		t.Fatalf("VOPD has %d tasks", g.NumTasks())
	}
	if s.Arch.Topology != "mesh" || s.Arch.Width != 4 || s.Arch.Height != 4 ||
		s.Arch.Router != "crux" || s.Arch.Routing != "xy" {
		t.Errorf("arch defaults %+v", s.Arch)
	}
	if s.Objective != "snr" || s.Algorithm != "rpbla" || s.Budget != 20000 || s.Seed != 1 || s.Seeds != 1 {
		t.Errorf("run defaults %+v", s)
	}
}

func TestNormalizeAnalysisDefaults(t *testing.T) {
	s := Spec{
		App: config.AppSpec{Builtin: "PIP"},
		Analyses: &AnalysesSpec{
			WDM:        &WDMSpec{},
			Power:      &PowerSpec{},
			Robustness: &RobustnessSpec{},
			Sim:        &SimSpec{},
		},
	}
	if _, err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	a := s.Analyses
	if a.Power.DetectorSensitivityDBm != -20 || a.Power.NonlinearityLimitDBm != 20 || a.Power.Wavelengths != 1 {
		t.Errorf("power defaults %+v", a.Power)
	}
	if a.Robustness.Samples != 50 || a.Robustness.Tolerance != 0.1 || a.Robustness.Seed != 1 {
		t.Errorf("robustness defaults %+v", a.Robustness)
	}
	if a.Sim.PacketBits != 4096 || a.Sim.DurationNs != 100_000 || len(a.Sim.LoadScales) != 1 || a.Sim.LoadScales[0] != 1 {
		t.Errorf("sim defaults %+v", a.Sim)
	}
}

// TestNormalizeDoesNotMutateSharedAnalyses guards the deep copy: many
// spec copies (e.g. sweep cells) may share one AnalysesSpec pointer.
func TestNormalizeDoesNotMutateSharedAnalyses(t *testing.T) {
	shared := &AnalysesSpec{Robustness: &RobustnessSpec{}}
	s1 := Spec{App: config.AppSpec{Builtin: "PIP"}, Analyses: shared}
	if _, err := s1.Normalize(); err != nil {
		t.Fatal(err)
	}
	if shared.Robustness.Samples != 0 {
		t.Errorf("Normalize mutated the shared analyses block: %+v", shared.Robustness)
	}
	if s1.Analyses == shared {
		t.Error("Normalize did not detach the analyses block")
	}
	if s1.Analyses.Robustness.Samples != 50 {
		t.Errorf("normalized copy missing defaults: %+v", s1.Analyses.Robustness)
	}
}

func TestNormalizeValidation(t *testing.T) {
	base := func() Spec { return Spec{App: config.AppSpec{Builtin: "PIP"}} }
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"unknown objective", func(s *Spec) { s.Objective = "speed" }},
		{"unknown algorithm", func(s *Spec) { s.Algorithm = "magic" }},
		{"negative seeds", func(s *Spec) { s.Seeds = -1 }},
		{"bad robustness tolerance", func(s *Spec) {
			s.Analyses = &AnalysesSpec{Robustness: &RobustnessSpec{Tolerance: 1.5}}
		}},
		{"too many robustness samples", func(s *Spec) {
			s.Analyses = &AnalysesSpec{Robustness: &RobustnessSpec{Samples: MaxRobustnessSamples + 1}}
		}},
		{"link failures on crux", func(s *Spec) {
			s.Analyses = &AnalysesSpec{LinkFailures: &LinkFailuresSpec{}}
		}},
		{"negative sim load", func(s *Spec) {
			s.Analyses = &AnalysesSpec{Sim: &SimSpec{LoadScales: []float64{-1}}}
		}},
		{"too many sim loads", func(s *Spec) {
			loads := make([]float64, MaxSimLoadPoints+1)
			for i := range loads {
				loads[i] = 1
			}
			s.Analyses = &AnalysesSpec{Sim: &SimSpec{LoadScales: loads}}
		}},
		{"NaN sim load", func(s *Spec) {
			s.Analyses = &AnalysesSpec{Sim: &SimSpec{LoadScales: []float64{math.NaN()}}}
		}},
		{"infinite sim packet size", func(s *Spec) {
			s.Analyses = &AnalysesSpec{Sim: &SimSpec{PacketBits: math.Inf(1)}}
		}},
		{"sim packets over the cap", func(s *Spec) {
			s.Analyses = &AnalysesSpec{Sim: &SimSpec{PacketBits: 1, DurationNs: MaxSimDurationNs}}
		}},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(&s)
		if _, err := s.Normalize(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Link failures are fine on an all-turn router.
	s := base()
	s.Arch = config.ArchSpec{Router: "cygnus", Routing: "bfs"}
	s.Analyses = &AnalysesSpec{LinkFailures: &LinkFailuresSpec{}}
	if _, err := s.Normalize(); err != nil {
		t.Errorf("link failures on cygnus rejected: %v", err)
	}
}

// TestSimAdmitsBuiltinAppsAtTheLongestWindow normalizes a default
// simulation of every built-in application over MaxSimDurationNs: the
// packet cap must admit each of them at the default packet size and load.
func TestSimAdmitsBuiltinAppsAtTheLongestWindow(t *testing.T) {
	for _, name := range cg.AppNames() {
		s := Spec{App: config.AppSpec{Builtin: name}, Analyses: &AnalysesSpec{Sim: &SimSpec{DurationNs: MaxSimDurationNs}}}
		if _, err := s.Normalize(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSpecKeyIncludesAnalyses is the cache-identity fix: two specs
// differing only in their analyses block must have different content
// addresses, and an analysis-free spec's key must not change when the
// field is absent vs nil (same canonical JSON).
func TestSpecKeyIncludesAnalyses(t *testing.T) {
	mk := func(a *AnalysesSpec) Spec {
		s := Spec{App: config.AppSpec{Builtin: "PIP"}, Analyses: a}
		if _, err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain := mk(nil)
	withPower := mk(&AnalysesSpec{Power: &PowerSpec{}})
	withBoth := mk(&AnalysesSpec{Power: &PowerSpec{}, Robustness: &RobustnessSpec{}})
	if plain.Key() == withPower.Key() {
		t.Error("analyses block not part of the cache identity")
	}
	if withPower.Key() == withBoth.Key() {
		t.Error("different analyses blocks collide")
	}
	if mk(nil).Key() != plain.Key() {
		t.Error("identical specs produced different keys")
	}
	// Same analyses expressed with explicit defaults normalize to the
	// same canonical spec, hence the same key.
	explicit := mk(&AnalysesSpec{Power: &PowerSpec{DetectorSensitivityDBm: -20, NonlinearityLimitDBm: 20, Wavelengths: 1}})
	if explicit.Key() != withPower.Key() {
		t.Error("equivalent analyses blocks do not share one identity")
	}
}

// TestSpecJSONRoundTrip proves the new spec fields (failed_links,
// analyses) survive a strict JSON round trip — the shape served to and
// accepted from the HTTP API and experiment files.
func TestSpecJSONRoundTrip(t *testing.T) {
	s := Spec{
		App: config.AppSpec{Builtin: "VOPD"},
		Arch: config.ArchSpec{
			Topology:    "mesh",
			Router:      "cygnus",
			Routing:     "bfs",
			FailedLinks: [][2]int{{1, 2}, {5, 6}},
		},
		Analyses: &AnalysesSpec{
			WDM:          &WDMSpec{},
			Power:        &PowerSpec{SNRMarginDB: 3},
			Robustness:   &RobustnessSpec{Samples: 7, Tolerance: 0.2, Seed: 3},
			LinkFailures: &LinkFailuresSpec{},
			Sim:          &SimSpec{LoadScales: []float64{0.5, 1, 2}},
		},
	}
	if _, err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	// Strict decode (unknown fields rejected), like config.Load.
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var back Spec
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("strict round trip: %v", err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip diverges:\n in %+v\nout %+v", s, back)
	}
	if back.Key() != s.Key() {
		t.Error("round trip changed the content address")
	}
}

// TestCompileDegradedArch proves failed_links compiles to a degraded
// topology and rejects non-BFS routing.
func TestCompileDegradedArch(t *testing.T) {
	spec := Spec{
		App:  config.AppSpec{Builtin: "PIP"},
		Arch: config.ArchSpec{Router: "cygnus", Routing: "bfs", FailedLinks: [][2]int{{0, 1}}},
	}
	comp, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := comp.Network.Topology().Name(), "mesh-3x3-degraded"; got != want {
		t.Errorf("topology %q, want %q", got, want)
	}

	bad := spec
	bad.Arch.Routing = "xy"
	if _, err := Compile(bad); err == nil {
		t.Error("failed_links with xy routing accepted")
	}

	missing := spec
	missing.Arch.FailedLinks = [][2]int{{0, 8}} // not adjacent on a 3x3 mesh
	if _, err := Compile(missing); err == nil {
		t.Error("nonexistent failed link accepted")
	}
}
