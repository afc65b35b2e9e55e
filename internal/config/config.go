// Package config implements the input-description layer of PhoNoCMap
// (Figure 1, box 1): JSON descriptions of applications (communication
// graphs) and NoC architectures (topology + optical router + routing
// algorithm + physical parameters), with loaders that build the
// corresponding runtime objects. It gives the CLI tools and downstream
// users a declarative way to describe experiments.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"phonocmap/internal/cg"
	"phonocmap/internal/network"
	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

// EdgeSpec is one directed communication in an application description.
type EdgeSpec struct {
	Src       string  `json:"src"`
	Dst       string  `json:"dst"`
	Bandwidth float64 `json:"bandwidth"`
}

// AppSpec describes an application. Either Builtin names one of the
// bundled benchmark graphs, or Name/Tasks/Edges define a custom CG.
type AppSpec struct {
	Builtin string     `json:"builtin,omitempty"`
	Name    string     `json:"name,omitempty"`
	Tasks   []string   `json:"tasks,omitempty"`
	Edges   []EdgeSpec `json:"edges,omitempty"`
}

// Build returns the communication graph the spec describes. A builtin
// application is its shared, read-only graph (cg.Builtin), built once per
// process; a custom one is built afresh.
func (s AppSpec) Build() (*cg.Graph, error) {
	if s.Builtin != "" {
		if s.Name != "" || len(s.Tasks) > 0 || len(s.Edges) > 0 {
			return nil, fmt.Errorf("config: builtin app %q must not also define a custom graph", s.Builtin)
		}
		return cg.Builtin(s.Builtin)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("config: application needs a builtin or a name")
	}
	g := cg.New(s.Name)
	for _, task := range s.Tasks {
		if _, err := g.AddTask(task); err != nil {
			return nil, err
		}
	}
	for _, e := range s.Edges {
		src, ok := g.TaskByName(e.Src)
		if !ok {
			return nil, fmt.Errorf("config: %s: edge references unknown task %q", s.Name, e.Src)
		}
		dst, ok := g.TaskByName(e.Dst)
		if !ok {
			return nil, fmt.Errorf("config: %s: edge references unknown task %q", s.Name, e.Dst)
		}
		if err := g.AddEdge(src, dst, e.Bandwidth); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// AppSpecOf serializes a communication graph into a custom AppSpec.
func AppSpecOf(g *cg.Graph) AppSpec {
	s := AppSpec{Name: g.Name()}
	for i := 0; i < g.NumTasks(); i++ {
		s.Tasks = append(s.Tasks, g.TaskName(cg.TaskID(i)))
	}
	for _, e := range g.Edges() {
		s.Edges = append(s.Edges, EdgeSpec{
			Src:       g.TaskName(e.Src),
			Dst:       g.TaskName(e.Dst),
			Bandwidth: e.Bandwidth,
		})
	}
	return s
}

// ArchSpec describes a photonic NoC architecture.
type ArchSpec struct {
	// Topology is "mesh", "torus" or "ring".
	Topology string `json:"topology"`
	// Width and Height size grids; Tiles sizes rings.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	Tiles  int `json:"tiles,omitempty"`
	// DieCm is the die edge length in centimetres (default 2).
	DieCm float64 `json:"die_cm,omitempty"`
	// WrapCrossings assigns layout crossings to torus wrap links.
	WrapCrossings int `json:"wrap_crossings,omitempty"`
	// Router is "crux", "cygnus" or "crossbar".
	Router string `json:"router"`
	// Routing is "xy", "yx" or "bfs".
	Routing string `json:"routing"`
	// FailedLinks lists failed links as [a, b] tile pairs; both lanes of
	// each pair are removed (a full cut), so the spec describes a degraded
	// topology (topo.Degraded) declaratively. Degraded topologies require
	// "bfs" routing: dimension-order algorithms need the full grid.
	FailedLinks [][2]int `json:"failed_links,omitempty"`
	// Params overrides the Table I photonic coefficients when present.
	Params *photonic.Params `json:"params,omitempty"`
}

// DefaultArch returns the paper's reference architecture: a WxH mesh of
// Crux routers with XY routing and Table I parameters.
func DefaultArch(w, h int) ArchSpec {
	return ArchSpec{Topology: "mesh", Width: w, Height: h, Router: "crux", Routing: "xy"}
}

// SquareForTasks returns the side of the smallest square grid that fits
// n tasks: PIP (8 tasks) -> 3, VOPD (16) -> 4, DVOPD (32) -> 6.
func SquareForTasks(n int) int {
	if n < 1 {
		return 0
	}
	return int(math.Ceil(math.Sqrt(float64(n))))
}

// Normalize fills the spec's defaults in place for an application of
// numTasks tasks: the paper's reference choices (a mesh of Crux routers
// with XY routing on the default die) sized to the smallest square — or,
// for rings, one tile per task. The CLI and the optimization service
// both resolve architecture defaults through this method so they cannot
// drift apart.
func (s *ArchSpec) Normalize(numTasks int) {
	if s.Topology == "" {
		s.Topology = "mesh"
	}
	if s.Router == "" {
		s.Router = "crux"
	}
	if s.Routing == "" {
		s.Routing = "xy"
	}
	if s.DieCm == 0 {
		s.DieCm = topo.DefaultDieCm
	}
	switch s.Topology {
	case "mesh", "torus":
		side := SquareForTasks(numTasks)
		if s.Width == 0 {
			s.Width = side
		}
		if s.Height == 0 {
			s.Height = side
		}
	case "ring":
		if s.Tiles == 0 {
			s.Tiles = numTasks
		}
	}
	if len(s.FailedLinks) > 0 {
		s.FailedLinks = canonicalFailedLinks(s.FailedLinks)
	}
}

// NumTiles returns the tile count the spec describes, without building
// the network: Tiles for a ring, Width×Height otherwise. A negative
// dimension counts as no tiles, and the product saturates at
// math.MaxInt instead of overflowing, so no size can wrap past a limit
// check.
func (s ArchSpec) NumTiles() int {
	if s.Topology == "ring" {
		return max(s.Tiles, 0)
	}
	if s.Width <= 0 || s.Height <= 0 {
		return 0
	}
	if s.Width > math.MaxInt/s.Height {
		return math.MaxInt
	}
	return s.Width * s.Height
}

// canonicalFailedLinks sorts each pair (a cut is undirected) and the
// list, dropping duplicates, so specs naming the same cuts in any order
// or direction share one canonical form — and one cache identity.
func canonicalFailedLinks(links [][2]int) [][2]int {
	out := make([][2]int, 0, len(links))
	seen := make(map[[2]int]bool, len(links))
	for _, l := range links {
		if l[1] < l[0] {
			l[0], l[1] = l[1], l[0]
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Build constructs the network instance the spec describes.
func (s ArchSpec) Build() (*network.Network, error) {
	var opts []topo.GridOption
	if s.DieCm != 0 {
		opts = append(opts, topo.WithDieCm(s.DieCm))
	}
	if s.WrapCrossings != 0 {
		opts = append(opts, topo.WithWrapCrossings(s.WrapCrossings))
	}
	var t topo.Topology
	var err error
	switch s.Topology {
	case "mesh":
		t, err = topo.NewMesh(s.Width, s.Height, opts...)
	case "torus":
		t, err = topo.NewTorus(s.Width, s.Height, opts...)
	case "ring":
		t, err = topo.NewRing(s.Tiles, opts...)
	default:
		return nil, fmt.Errorf("config: unknown topology %q (have mesh, torus, ring)", s.Topology)
	}
	if err != nil {
		return nil, err
	}
	if len(s.FailedLinks) > 0 {
		if s.Routing != "bfs" {
			return nil, fmt.Errorf("config: failed_links needs \"bfs\" routing (dimension-order %q requires the full grid)", s.Routing)
		}
		failures := make([][2]topo.TileID, 0, 2*len(s.FailedLinks))
		for _, l := range s.FailedLinks {
			a, b := topo.TileID(l[0]), topo.TileID(l[1])
			failures = append(failures, [2]topo.TileID{a, b}, [2]topo.TileID{b, a})
		}
		t, err = topo.Degrade(t, failures)
		if err != nil {
			return nil, err
		}
		// Name an isolated tile, rather than the first pair the full
		// build below would fail to route to it.
		degree := make([]int, t.NumTiles())
		for _, l := range t.Links() {
			degree[l.From]++
			degree[l.To]++
		}
		for tile, deg := range degree {
			if deg == 0 {
				return nil, fmt.Errorf("topo: failing %d link(s) isolates tile %d", len(failures), tile)
			}
		}
	}
	arch, err := router.ByName(s.Router)
	if err != nil {
		return nil, err
	}
	algo, err := route.ByName(s.Routing)
	if err != nil {
		return nil, err
	}
	params := photonic.DefaultParams()
	if s.Params != nil {
		params = *s.Params
	}
	return network.New(t, arch, algo, params)
}

// Experiment is a full experiment description: what to map onto what,
// optimizing which objective, with which algorithm and budget.
type Experiment struct {
	App       AppSpec  `json:"app"`
	Arch      ArchSpec `json:"arch"`
	Objective string   `json:"objective"`           // "loss" or "snr"
	Algorithm string   `json:"algorithm,omitempty"` // default "rpbla"
	Budget    int      `json:"budget,omitempty"`    // default 20000
	Seed      int64    `json:"seed,omitempty"`      // default 1
}

// Normalize fills defaults in place.
func (e *Experiment) Normalize() {
	if e.Algorithm == "" {
		e.Algorithm = "rpbla"
	}
	if e.Budget == 0 {
		e.Budget = 20000
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	if e.Objective == "" {
		e.Objective = "snr"
	}
}

// Load reads a JSON value from r. Unknown fields are rejected to catch
// typos in hand-written experiment files.
func Load[T any](r io.Reader) (T, error) {
	var v T
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, fmt.Errorf("config: decode: %w", err)
	}
	return v, nil
}

// LoadFile reads a JSON value from a file.
func LoadFile[T any](path string) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return Load[T](f)
}

// Save writes v as indented JSON to w.
func Save(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// SaveFile writes v as indented JSON to a file.
func SaveFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
