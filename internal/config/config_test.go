package config

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"phonocmap/internal/cg"
)

func TestAppSpecBuiltin(t *testing.T) {
	g, err := AppSpec{Builtin: "PIP"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "PIP" || g.NumTasks() != 8 {
		t.Errorf("built %v", g)
	}
	if _, err := (AppSpec{Builtin: "nope"}).Build(); err == nil {
		t.Error("accepted unknown builtin")
	}
	if _, err := (AppSpec{Builtin: "PIP", Name: "x"}).Build(); err == nil {
		t.Error("accepted builtin plus custom fields")
	}
}

func TestAppSpecCustom(t *testing.T) {
	s := AppSpec{
		Name:  "custom",
		Tasks: []string{"a", "b", "c"},
		Edges: []EdgeSpec{{Src: "a", Dst: "b", Bandwidth: 10}, {Src: "b", Dst: "c", Bandwidth: 20}},
	}
	g, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 3 || g.NumEdges() != 2 {
		t.Errorf("shape: %v", g)
	}
	bad := s
	bad.Edges = []EdgeSpec{{Src: "a", Dst: "zzz", Bandwidth: 1}}
	if _, err := bad.Build(); err == nil {
		t.Error("accepted unknown edge endpoint")
	}
	if _, err := (AppSpec{}).Build(); err == nil {
		t.Error("accepted empty spec")
	}
	dup := s
	dup.Tasks = []string{"a", "a"}
	if _, err := dup.Build(); err == nil {
		t.Error("accepted duplicate tasks")
	}
}

func TestAppSpecRoundTrip(t *testing.T) {
	orig := cg.MustApp("VOPD")
	spec := AppSpecOf(orig)
	rebuilt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.DOT() != orig.DOT() {
		t.Error("round trip altered the graph")
	}
}

func TestArchSpecBuildMesh(t *testing.T) {
	nw, err := DefaultArch(4, 4).Build()
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumTiles() != 16 {
		t.Errorf("tiles = %d", nw.NumTiles())
	}
	if nw.Router().Name() != "crux" || nw.Routing().Name() != "xy" {
		t.Errorf("wrong components: %s", nw.String())
	}
}

func TestArchSpecBuildVariants(t *testing.T) {
	cases := []ArchSpec{
		{Topology: "torus", Width: 4, Height: 4, Router: "crux", Routing: "xy", WrapCrossings: 2},
		{Topology: "ring", Tiles: 6, Router: "crux", Routing: "bfs"},
		{Topology: "mesh", Width: 3, Height: 3, Router: "crossbar", Routing: "yx", DieCm: 1.5},
	}
	for i, s := range cases {
		if _, err := s.Build(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
	bad := []ArchSpec{
		{Topology: "hypercube", Width: 4, Height: 4, Router: "crux", Routing: "xy"},
		{Topology: "mesh", Width: 4, Height: 4, Router: "nope", Routing: "xy"},
		{Topology: "mesh", Width: 4, Height: 4, Router: "crux", Routing: "nope"},
		{Topology: "mesh", Width: 0, Height: 4, Router: "crux", Routing: "xy"},
	}
	for i, s := range bad {
		if _, err := s.Build(); err == nil {
			t.Errorf("bad case %d accepted", i)
		}
	}
}

func TestArchSpecFailedLinks(t *testing.T) {
	// A full cut removes both lanes; the degraded mesh still builds with
	// BFS routing.
	s := ArchSpec{Topology: "mesh", Width: 3, Height: 3, Router: "cygnus", Routing: "bfs",
		FailedLinks: [][2]int{{0, 1}}}
	nw, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumTiles() != 9 {
		t.Errorf("tiles = %d", nw.NumTiles())
	}
	if got := len(nw.Topology().Links()); got != 24-2 {
		t.Errorf("degraded 3x3 mesh has %d directed links, want 22", got)
	}

	// Dimension-order routing cannot detour around cuts.
	bad := s
	bad.Routing = "xy"
	if _, err := bad.Build(); err == nil {
		t.Error("failed_links with xy routing accepted")
	}

	// Nonexistent links are rejected.
	missing := s
	missing.FailedLinks = [][2]int{{0, 5}}
	if _, err := missing.Build(); err == nil {
		t.Error("nonexistent failed link accepted")
	}

	// Cutting every link of a tile is rejected, naming the isolated
	// tile (topo.Degrade itself accepts such a cut set).
	isolating := s
	isolating.FailedLinks = [][2]int{{0, 1}, {0, 3}}
	const want = "topo: failing 4 link(s) isolates tile 0"
	if _, err := isolating.Build(); err == nil || err.Error() != want {
		t.Errorf("isolating cut: error %v, want %q", err, want)
	}
}

// TestArchSpecBuildRejectsBadFailedLinks: a cut on a negative,
// out-of-range, self or non-adjacent tile pair is an error on every
// topology, never a panic.
func TestArchSpecBuildRejectsBadFailedLinks(t *testing.T) {
	archs := []ArchSpec{
		{Topology: "mesh", Width: 3, Height: 3},
		{Topology: "torus", Width: 3, Height: 3},
		{Topology: "ring", Tiles: 8},
	}
	for _, arch := range archs {
		for _, link := range [][2]int{
			{-1, 0}, {0, -1}, {math.MinInt, 0}, // negative
			{9, 0}, {0, 9}, {math.MaxInt, 0}, // out of range
			{4, 4}, {0, 0}, // self
			{0, 4}, // not adjacent
		} {
			s := arch
			s.Router, s.Routing = "cygnus", "bfs"
			s.FailedLinks = [][2]int{link}
			if _, err := s.Build(); err == nil {
				t.Errorf("%s: failed link %v accepted", arch.Topology, link)
			}
		}
	}
}

func TestFailedLinksCanonicalization(t *testing.T) {
	// The same cuts in any order or lane direction normalize to one
	// canonical form — one cache identity.
	a := ArchSpec{Topology: "mesh", Routing: "bfs", FailedLinks: [][2]int{{5, 2}, {0, 1}, {1, 0}}}
	a.Normalize(8)
	want := [][2]int{{0, 1}, {2, 5}}
	if !reflect.DeepEqual(a.FailedLinks, want) {
		t.Errorf("canonical form %v, want %v", a.FailedLinks, want)
	}
}

func TestArchSpecFailedLinksRoundTrip(t *testing.T) {
	s := ArchSpec{Topology: "mesh", Width: 3, Height: 3, Router: "cygnus", Routing: "bfs",
		FailedLinks: [][2]int{{1, 2}, {4, 5}}}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := Load[ArchSpec](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip diverges:\n in %+v\nout %+v", s, back)
	}
}

func TestExperimentNormalize(t *testing.T) {
	var e Experiment
	e.Normalize()
	if e.Algorithm != "rpbla" || e.Budget != 20000 || e.Seed != 1 || e.Objective != "snr" {
		t.Errorf("defaults wrong: %+v", e)
	}
	e2 := Experiment{Algorithm: "ga", Budget: 5, Seed: 3, Objective: "loss"}
	e2.Normalize()
	if e2.Algorithm != "ga" || e2.Budget != 5 || e2.Seed != 3 || e2.Objective != "loss" {
		t.Errorf("Normalize clobbered explicit values: %+v", e2)
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	exp := Experiment{
		App:       AppSpec{Builtin: "MWD"},
		Arch:      DefaultArch(4, 4),
		Objective: "snr",
		Algorithm: "rpbla",
		Budget:    100,
		Seed:      7,
	}
	var buf bytes.Buffer
	if err := Save(&buf, exp); err != nil {
		t.Fatal(err)
	}
	got, err := Load[Experiment](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App.Builtin != "MWD" || got.Budget != 100 || got.Arch.Width != 4 {
		t.Errorf("round trip: %+v", got)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	r := strings.NewReader(`{"app":{"builtin":"PIP"},"frobnicate":true}`)
	if _, err := Load[Experiment](r); err == nil {
		t.Error("accepted unknown field")
	}
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exp.json")
	exp := Experiment{App: AppSpec{Builtin: "PIP"}, Arch: DefaultArch(3, 3), Objective: "loss"}
	if err := SaveFile(path, exp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile[Experiment](path)
	if err != nil {
		t.Fatal(err)
	}
	if got.App.Builtin != "PIP" || got.Objective != "loss" {
		t.Errorf("file round trip: %+v", got)
	}
	if _, err := LoadFile[Experiment](filepath.Join(dir, "missing.json")); err == nil {
		t.Error("loaded a missing file")
	}
}

func TestArchSpecParamsOverride(t *testing.T) {
	spec := DefaultArch(3, 3)
	params := spec.Params
	if params != nil {
		t.Fatal("default arch has explicit params")
	}
	nw, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if nw.Params().CrossingLoss != -0.04 {
		t.Error("default params not Table I")
	}
	custom := nw.Params()
	custom.CrossingLoss = -0.08
	spec.Params = &custom
	nw2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if nw2.Params().CrossingLoss != -0.08 {
		t.Error("params override ignored")
	}
}

func TestArchSpecNumTiles(t *testing.T) {
	cases := []struct {
		arch ArchSpec
		want int
	}{
		{DefaultArch(4, 3), 12},
		{ArchSpec{Topology: "torus", Width: 8, Height: 8}, 64},
		{ArchSpec{Topology: "ring", Tiles: 6, Width: 9, Height: 9}, 6},
		{ArchSpec{Topology: "ring", Tiles: -6}, 0},
		{DefaultArch(-2, -3), 0},
		{DefaultArch(0, 4), 0},
		{DefaultArch(math.MaxInt/2+1, 2), math.MaxInt},
		{DefaultArch(math.MaxInt, math.MaxInt), math.MaxInt},
	}
	for _, c := range cases {
		if got := c.arch.NumTiles(); got != c.want {
			t.Errorf("%+v: NumTiles() = %d, want %d", c.arch, got, c.want)
		}
	}
}
