// Package cg implements Communication Graphs (CGs), the application input
// of PhoNoCMap (Definition 1 of the paper): a directed graph whose vertices
// are application tasks and whose edges describe the communications between
// them, annotated with a bandwidth requirement.
//
// The package also ships the eight multimedia benchmark applications used
// in the paper's case studies (see apps.go) and synthetic generators for
// stress testing (see gen.go).
package cg

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// TaskID identifies a task (vertex) within one Graph. IDs are dense,
// starting at 0 in insertion order.
type TaskID int

// Edge is a directed communication between two tasks. Bandwidth is the
// average required bandwidth in MB/s. The worst-case loss and SNR
// objectives of the paper depend only on the edge set, but bandwidths are
// carried for bandwidth-weighted extensions and for faithful benchmark
// descriptions.
type Edge struct {
	Src, Dst  TaskID
	Bandwidth float64
}

// Graph is a communication graph. The zero value is unusable; create
// graphs with New.
type Graph struct {
	name    string
	tasks   []string
	taskIDs map[string]TaskID
	edges   []Edge
	edgeSet map[[2]TaskID]bool
	out     [][]int // edge indices by source task
	in      [][]int // edge indices by destination task
}

// New returns an empty communication graph with the given name.
func New(name string) *Graph {
	return &Graph{
		name:    name,
		taskIDs: make(map[string]TaskID),
		edgeSet: make(map[[2]TaskID]bool),
	}
}

// Name returns the application name.
func (g *Graph) Name() string { return g.name }

// NumTasks returns the number of tasks (|C| in the paper).
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the number of directed communications (|E|).
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddTask adds a task with a unique, non-empty name and returns its ID.
func (g *Graph) AddTask(name string) (TaskID, error) {
	if name == "" {
		return 0, fmt.Errorf("cg: %s: empty task name", g.name)
	}
	if _, ok := g.taskIDs[name]; ok {
		return 0, fmt.Errorf("cg: %s: duplicate task %q", g.name, name)
	}
	id := TaskID(len(g.tasks))
	g.tasks = append(g.tasks, name)
	g.taskIDs[name] = id
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id, nil
}

// MustAddTask is AddTask that panics on error; intended for building
// compiled-in benchmark graphs where failure is a programming error.
func (g *Graph) MustAddTask(name string) TaskID {
	id, err := g.AddTask(name)
	if err != nil {
		panic(err)
	}
	return id
}

// AddEdge adds a directed communication from src to dst with the given
// bandwidth (MB/s). Self-loops, duplicate edges, unknown task IDs and
// negative bandwidths are rejected.
func (g *Graph) AddEdge(src, dst TaskID, bandwidth float64) error {
	if !g.validTask(src) || !g.validTask(dst) {
		return fmt.Errorf("cg: %s: edge (%d,%d): unknown task", g.name, src, dst)
	}
	if src == dst {
		return fmt.Errorf("cg: %s: self-loop on task %q", g.name, g.tasks[src])
	}
	if g.edgeSet[[2]TaskID{src, dst}] {
		return fmt.Errorf("cg: %s: duplicate edge %q -> %q", g.name, g.tasks[src], g.tasks[dst])
	}
	if bandwidth < 0 || math.IsNaN(bandwidth) || math.IsInf(bandwidth, 0) {
		return fmt.Errorf("cg: %s: bandwidth %v on %q -> %q is negative or not finite", g.name, bandwidth, g.tasks[src], g.tasks[dst])
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{Src: src, Dst: dst, Bandwidth: bandwidth})
	g.edgeSet[[2]TaskID{src, dst}] = true
	g.out[src] = append(g.out[src], idx)
	g.in[dst] = append(g.in[dst], idx)
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(src, dst TaskID, bandwidth float64) {
	if err := g.AddEdge(src, dst, bandwidth); err != nil {
		panic(err)
	}
}

func (g *Graph) validTask(t TaskID) bool {
	return t >= 0 && int(t) < len(g.tasks)
}

// TaskName returns the name of task t, or "" if t is out of range.
func (g *Graph) TaskName(t TaskID) string {
	if !g.validTask(t) {
		return ""
	}
	return g.tasks[t]
}

// TaskByName returns the ID of the named task.
func (g *Graph) TaskByName(name string) (TaskID, bool) {
	id, ok := g.taskIDs[name]
	return id, ok
}

// Edges returns a copy of the edge list in insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// HasEdge reports whether the directed communication src -> dst exists.
func (g *Graph) HasEdge(src, dst TaskID) bool {
	return g.edgeSet[[2]TaskID{src, dst}]
}

// OutEdges returns the edges leaving task t, in insertion order.
func (g *Graph) OutEdges(t TaskID) []Edge {
	if !g.validTask(t) {
		return nil
	}
	res := make([]Edge, 0, len(g.out[t]))
	for _, i := range g.out[t] {
		res = append(res, g.edges[i])
	}
	return res
}

// InEdges returns the edges entering task t, in insertion order.
func (g *Graph) InEdges(t TaskID) []Edge {
	if !g.validTask(t) {
		return nil
	}
	res := make([]Edge, 0, len(g.in[t]))
	for _, i := range g.in[t] {
		res = append(res, g.edges[i])
	}
	return res
}

// Degree returns the total degree (in + out) of task t.
func (g *Graph) Degree(t TaskID) int {
	if !g.validTask(t) {
		return 0
	}
	return len(g.out[t]) + len(g.in[t])
}

// MaxDegree returns the largest total degree over all tasks; 0 for an
// empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for t := range g.tasks {
		if d := g.Degree(TaskID(t)); d > max {
			max = d
		}
	}
	return max
}

// TotalBandwidth returns the sum of all edge bandwidths.
func (g *Graph) TotalBandwidth() float64 {
	var sum float64
	for _, e := range g.edges {
		sum += e.Bandwidth
	}
	return sum
}

// Validate checks structural invariants: at least one task, every edge
// endpoint valid, no self-loops or duplicates (enforced at insertion but
// re-checked for graphs built by deserialization paths).
func (g *Graph) Validate() error {
	if len(g.tasks) == 0 {
		return fmt.Errorf("cg: %s: no tasks", g.name)
	}
	seen := make(map[[2]TaskID]bool, len(g.edges))
	for i, e := range g.edges {
		if !g.validTask(e.Src) || !g.validTask(e.Dst) {
			return fmt.Errorf("cg: %s: edge %d has invalid endpoint", g.name, i)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("cg: %s: edge %d is a self-loop", g.name, i)
		}
		k := [2]TaskID{e.Src, e.Dst}
		if seen[k] {
			return fmt.Errorf("cg: %s: duplicate edge %d", g.name, i)
		}
		seen[k] = true
		if bw := e.Bandwidth; bw < 0 || math.IsNaN(bw) || math.IsInf(bw, 0) {
			return fmt.Errorf("cg: %s: edge %d has bandwidth %v, negative or not finite", g.name, i, bw)
		}
	}
	return nil
}

// WeaklyConnected reports whether the graph is connected when edge
// directions are ignored. Single-task graphs are connected; empty graphs
// are not.
func (g *Graph) WeaklyConnected() bool {
	n := len(g.tasks)
	if n == 0 {
		return false
	}
	adj := make([][]TaskID, n)
	for _, e := range g.edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	visited := make([]bool, n)
	stack := []TaskID{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[t] {
			if !visited[u] {
				visited[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == n
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.name)
	for _, name := range g.tasks {
		c.MustAddTask(name)
	}
	for _, e := range g.edges {
		c.MustAddEdge(e.Src, e.Dst, e.Bandwidth)
	}
	return c
}

// DOT renders the graph in Graphviz dot format, with tasks labelled by
// name and edges by bandwidth. Output is deterministic.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.name)
	for id, name := range g.tasks {
		fmt.Fprintf(&b, "  t%d [label=%q];\n", id, name)
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  t%d -> t%d [label=\"%g\"];\n", e.Src, e.Dst, e.Bandwidth)
	}
	b.WriteString("}\n")
	return b.String()
}

// String returns a one-line summary such as "VOPD: 16 tasks, 21 edges".
func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d tasks, %d edges", g.name, len(g.tasks), len(g.edges))
}
