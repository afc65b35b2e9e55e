package main

import (
	"context"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
	"phonocmap/internal/search"
)

func TestParseMapCommandHelp(t *testing.T) {
	_, _, _, _, err := parseMapCommand([]string{"-h"})
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	// cmdMap must treat help as a clean exit, not an error.
	if err := cmdMap([]string{"-h"}); err != nil {
		t.Errorf("cmdMap(-h) = %v, want nil", err)
	}
}

func TestParseMapping(t *testing.T) {
	m, err := parseMapping("0, 1,4,5")
	if err != nil {
		t.Fatal(err)
	}
	want := core.Mapping{0, 1, 4, 5}
	if !m.Equal(want) {
		t.Errorf("got %v, want %v", m, want)
	}
	for _, bad := range []string{"", "0,x,2", "1,,2"} {
		if _, err := parseMapping(bad); err == nil {
			t.Errorf("parseMapping(%q) accepted", bad)
		}
	}
}

func TestParseServers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{" http://a:8080, http://b:8080 ,,", []string{"http://a:8080", "http://b:8080"}},
		{"http://a:8080", []string{"http://a:8080"}},
		{"", nil},
		{",", nil},
		{" , ,  ", nil},
	} {
		if got := parseServers(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseServers(%q) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
}

func TestParseMapCommandBackendFlags(t *testing.T) {
	_, _, _, backend, err := parseMapCommand([]string{
		"-app", "PIP", "-servers", "http://a:8080,http://b:8080",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !backend.remote() || len(backend.servers) != 2 {
		t.Errorf("backend = %+v, want a 2-node fleet", backend)
	}
	// -server and -servers are mutually exclusive backends.
	if _, _, _, _, err := parseMapCommand([]string{
		"-app", "PIP", "-server", "http://a:8080", "-servers", "http://b:8080",
	}); err == nil {
		t.Error("parseMapCommand accepted -server together with -servers")
	}
}

func TestParseMapCommandDefaults(t *testing.T) {
	exp, _, out, _, err := parseMapCommand([]string{"-app", "VOPD"})
	if err != nil {
		t.Fatal(err)
	}
	if out != "" {
		t.Errorf("default -out = %q, want empty", out)
	}
	if exp.App.Builtin != "VOPD" {
		t.Errorf("app %+v", exp.App)
	}
	if exp.Arch.Topology != "mesh" || exp.Arch.Width != 4 || exp.Arch.Height != 4 {
		t.Errorf("VOPD should default to a 4x4 mesh, got %+v", exp.Arch)
	}
	if exp.Arch.Router != "crux" || exp.Arch.Routing != "xy" {
		t.Errorf("arch defaults %+v", exp.Arch)
	}
	if exp.Objective != "snr" || exp.Algorithm != "rpbla" || exp.Budget != 20000 || exp.Seed != 1 {
		t.Errorf("experiment defaults %+v", exp)
	}
}

func TestParseMapCommandFlags(t *testing.T) {
	exp, _, out, _, err := parseMapCommand([]string{
		"-app", "PIP", "-topology", "torus", "-width", "5", "-height", "3",
		"-objective", "loss", "-algorithm", "ga", "-budget", "777", "-seed", "9",
		"-out", "res.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != "res.json" {
		t.Errorf("out = %q", out)
	}
	if exp.Arch.Topology != "torus" || exp.Arch.Width != 5 || exp.Arch.Height != 3 {
		t.Errorf("arch %+v", exp.Arch)
	}
	if exp.Objective != "loss" || exp.Algorithm != "ga" || exp.Budget != 777 || exp.Seed != 9 {
		t.Errorf("experiment %+v", exp)
	}
}

func TestParseMapCommandExperimentFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	body := `{
	  "app": {"builtin": "MWD"},
	  "arch": {"topology": "mesh", "width": 4, "height": 4, "router": "crux", "routing": "xy"},
	  "objective": "loss",
	  "algorithm": "sa",
	  "budget": 1234
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	exp, _, _, _, err := parseMapCommand([]string{"-experiment", path})
	if err != nil {
		t.Fatal(err)
	}
	if exp.App.Builtin != "MWD" || exp.Algorithm != "sa" || exp.Budget != 1234 {
		t.Errorf("experiment %+v", exp)
	}
	if exp.Seed != 1 {
		t.Errorf("Normalize did not default the seed: %d", exp.Seed)
	}
}

func TestParseMapCommandExperimentFileWithoutArch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	if err := os.WriteFile(path, []byte(`{"app": {"builtin": "VOPD"}, "objective": "snr"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	exp, _, _, _, err := parseMapCommand([]string{"-experiment", path})
	if err != nil {
		t.Fatal(err)
	}
	// The arch must be resolved to the same defaults the service uses.
	if exp.Arch.Topology != "mesh" || exp.Arch.Width != 4 || exp.Arch.Height != 4 ||
		exp.Arch.Router != "crux" || exp.Arch.Routing != "xy" {
		t.Errorf("experiment without arch not normalized: %+v", exp.Arch)
	}
	if _, err := exp.Arch.Build(); err != nil {
		t.Errorf("normalized arch does not build: %v", err)
	}
}

func TestParseMapCommandErrors(t *testing.T) {
	cases := [][]string{
		{},                                     // no app at all
		{"-app", "NOPE"},                       // unknown bundled app
		{"-app", "PIP", "-app-file", "x.json"}, // both sources
		{"-bogus-flag"},                        // unknown flag
		{"-experiment", "/nonexistent/exp.json"},
	}
	for _, args := range cases {
		if _, _, _, _, err := parseMapCommand(args); err == nil {
			t.Errorf("parseMapCommand(%v) accepted", args)
		}
	}
	if _, _, _, _, err := parseMapCommand([]string{"-bogus-flag"}); !errors.Is(err, errFlagParse) {
		t.Errorf("bad flag returned %v, want errFlagParse sentinel", err)
	}
}

func TestLoadApp(t *testing.T) {
	g, err := loadApp("PIP", "")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 8 {
		t.Errorf("PIP has %d tasks, want 8", g.NumTasks())
	}
	if _, err := loadApp("", ""); err == nil {
		t.Error("missing app accepted")
	}
	if _, err := loadApp("PIP", "file.json"); err == nil {
		t.Error("both app sources accepted")
	}
	if _, err := loadApp("", "/nonexistent/app.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestArchFlagsSpecRespectsExplicitSize(t *testing.T) {
	exp, _, _, _, err := parseMapCommand([]string{"-app", "DVOPD", "-width", "8"})
	if err != nil {
		t.Fatal(err)
	}
	// Width fixed, height still defaults to the smallest fitting square.
	if exp.Arch.Width != 8 || exp.Arch.Height != 6 {
		t.Errorf("arch %dx%d, want 8x6", exp.Arch.Width, exp.Arch.Height)
	}
}

func TestParseFailedLinks(t *testing.T) {
	got, err := parseFailedLinks("0-1, 5-6")
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 1}, {5, 6}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("got %v, want %v", got, want)
	}
	if got, err := parseFailedLinks(""); err != nil || got != nil {
		t.Errorf("empty input: %v, %v", got, err)
	}
	for _, bad := range []string{"0", "a-b", "1-2-3x", "1-", "-2"} {
		if _, err := parseFailedLinks(bad); err == nil {
			t.Errorf("parseFailedLinks(%q) accepted", bad)
		}
	}
}

// TestParseFailedLinksBoundaries: the parser accepts any pair of ints,
// self and negative tiles included (ArchSpec.Build rejects those, see
// internal/config), and rejects what does not parse as two ints.
func TestParseFailedLinksBoundaries(t *testing.T) {
	maxInt := strconv.Itoa(math.MaxInt)
	overflow := strconv.FormatUint(uint64(math.MaxInt)+1, 10)
	for _, tc := range []struct {
		in   string
		want [][2]int // nil: an error
	}{
		{"0-0", [][2]int{{0, 0}}},
		{"1--2", [][2]int{{1, -2}}},
		{maxInt + "-0", [][2]int{{math.MaxInt, 0}}},
		{overflow + "-0", nil},
		{"0-" + overflow, nil},
		{"0-1,", nil},
		{",", nil},
	} {
		got, err := parseFailedLinks(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseFailedLinks(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseFailedLinks(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestParseMapCommandEvalWorkers: -eval-workers 0 and -1 keep the
// process default; 1 and math.MaxInt32 set it, and larger counts set
// math.MaxInt32.
func TestParseMapCommandEvalWorkers(t *testing.T) {
	defer core.SetDefaultEvalWorkers(core.DefaultEvalWorkers())
	for _, tc := range []struct{ flag, want int }{
		{0, 5}, {-1, 5}, {1, 1}, {math.MaxInt32, math.MaxInt32}, {math.MaxInt, math.MaxInt32},
	} {
		core.SetDefaultEvalWorkers(5)
		if _, _, _, _, err := parseMapCommand([]string{"-app", "PIP", "-eval-workers", strconv.Itoa(tc.flag)}); err != nil {
			t.Fatalf("-eval-workers %d: %v", tc.flag, err)
		}
		if got := core.DefaultEvalWorkers(); got != tc.want {
			t.Errorf("-eval-workers %d: process default %d, want %d", tc.flag, got, tc.want)
		}
	}
}

func TestParseMapCommandFailedLinksAndAnalyses(t *testing.T) {
	analysesPath := filepath.Join(t.TempDir(), "analyses.json")
	if err := os.WriteFile(analysesPath, []byte(`{"power": {}, "robustness": {"samples": 6}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, _, _, _, err := parseMapCommand([]string{
		"-app", "PIP", "-router", "cygnus", "-routing", "bfs",
		"-failed-links", "1-2", "-analyses", analysesPath, "-seeds", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Arch.FailedLinks) != 1 || spec.Arch.FailedLinks[0] != [2]int{1, 2} {
		t.Errorf("failed links %v", spec.Arch.FailedLinks)
	}
	if spec.Seeds != 2 {
		t.Errorf("seeds %d", spec.Seeds)
	}
	if spec.Analyses == nil || spec.Analyses.Power == nil || spec.Analyses.Robustness == nil {
		t.Fatalf("analyses %+v", spec.Analyses)
	}
	if spec.Analyses.Robustness.Samples != 6 || spec.Analyses.Robustness.Tolerance != 0.1 {
		t.Errorf("analyses not normalized: %+v", spec.Analyses.Robustness)
	}

	// failed_links without BFS routing is rejected at parse/normalize
	// time, like the service rejects it at submission.
	if _, _, _, _, err := parseMapCommand([]string{"-app", "PIP", "-failed-links", "1-2"}); err == nil {
		t.Error("failed links with default xy routing accepted")
	}
}

// TestCmdMapMatchesScenarioPipeline pins the CLI execution path to the
// shared pipeline: what cmdMap computes for a degraded spec — via the
// Runner backend newRunner selects — is exactly one seeded exploration
// of the compiled spec plus Compiled.Analyze, the same computation the
// service and a 1-cell sweep perform for this spec (their equivalence is
// pinned in internal/service, and local/remote Runner equivalence in
// package client).
func TestCmdMapMatchesScenarioPipeline(t *testing.T) {
	args := []string{
		"-app", "PIP", "-router", "cygnus", "-routing", "bfs",
		"-failed-links", "1-2", "-algorithm", "rs", "-budget", "250", "-seed", "11",
	}
	spec, _, _, backend, err := parseMapCommand(args)
	if err != nil {
		t.Fatal(err)
	}
	if backend.remote() {
		t.Fatalf("no -server/-servers flag given, parsed %q", backend)
	}
	rn, cleanup, err := newRunner(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	res, err := rn.RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := search.New(comp.Spec.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExploration(comp.Problem, core.Options{Budget: comp.Spec.Budget, Seed: comp.Spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.Run(alg)
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := comp.Analyze(want.Mapping, want.Score)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.Equal(want.Mapping) || res.Score != want.Score || res.Evals != want.Evals {
		t.Errorf("CLI path diverges from pipeline:\n cli %+v\n lib %+v", res, want)
	}
	if !reflect.DeepEqual(res.Report, wantReport) {
		t.Errorf("CLI report diverges from pipeline")
	}
}
