package cg

import (
	"math"
	"strings"
	"testing"
)

func TestNewEmptyGraph(t *testing.T) {
	g := New("empty")
	if g.Name() != "empty" {
		t.Errorf("Name() = %q, want %q", g.Name(), "empty")
	}
	if g.NumTasks() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has %d tasks, %d edges", g.NumTasks(), g.NumEdges())
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted an empty graph")
	}
	if g.WeaklyConnected() {
		t.Error("empty graph reported connected")
	}
}

func TestAddTask(t *testing.T) {
	g := New("t")
	a, err := g.AddTask("a")
	if err != nil {
		t.Fatalf("AddTask(a): %v", err)
	}
	if a != 0 {
		t.Errorf("first task ID = %d, want 0", a)
	}
	b, err := g.AddTask("b")
	if err != nil {
		t.Fatalf("AddTask(b): %v", err)
	}
	if b != 1 {
		t.Errorf("second task ID = %d, want 1", b)
	}
	if g.TaskName(a) != "a" || g.TaskName(b) != "b" {
		t.Error("TaskName mismatch")
	}
	if id, ok := g.TaskByName("b"); !ok || id != b {
		t.Error("TaskByName(b) mismatch")
	}
	if _, ok := g.TaskByName("zzz"); ok {
		t.Error("TaskByName found a nonexistent task")
	}
	if g.TaskName(TaskID(99)) != "" {
		t.Error("TaskName out of range should be empty")
	}
}

func TestAddTaskErrors(t *testing.T) {
	g := New("t")
	if _, err := g.AddTask(""); err == nil {
		t.Error("AddTask accepted an empty name")
	}
	g.MustAddTask("a")
	if _, err := g.AddTask("a"); err == nil {
		t.Error("AddTask accepted a duplicate name")
	}
}

func TestAddEdge(t *testing.T) {
	g := New("t")
	a := g.MustAddTask("a")
	b := g.MustAddTask("b")
	if err := g.AddEdge(a, b, 100); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !g.HasEdge(a, b) {
		t.Error("HasEdge(a,b) = false after AddEdge")
	}
	if g.HasEdge(b, a) {
		t.Error("HasEdge(b,a) = true for a directed edge a->b")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	e := g.Edge(0)
	if e.Src != a || e.Dst != b || e.Bandwidth != 100 {
		t.Errorf("Edge(0) = %+v", e)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New("t")
	a := g.MustAddTask("a")
	b := g.MustAddTask("b")
	cases := []struct {
		name     string
		src, dst TaskID
		bw       float64
	}{
		{"self-loop", a, a, 1},
		{"bad src", TaskID(-1), b, 1},
		{"bad dst", a, TaskID(7), 1},
		{"negative bw", a, b, -1},
		{"NaN bw", a, b, math.NaN()},
		{"+Inf bw", a, b, math.Inf(1)},
		{"-Inf bw", a, b, math.Inf(-1)},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.src, c.dst, c.bw); err == nil {
			t.Errorf("AddEdge %s accepted", c.name)
		}
	}
	g.MustAddEdge(a, b, 1)
	if err := g.AddEdge(a, b, 2); err == nil {
		t.Error("AddEdge accepted a duplicate edge")
	}
}

func TestInOutEdgesAndDegree(t *testing.T) {
	g := New("t")
	a := g.MustAddTask("a")
	b := g.MustAddTask("b")
	c := g.MustAddTask("c")
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(a, c, 2)
	g.MustAddEdge(c, a, 3)

	if out := g.OutEdges(a); len(out) != 2 {
		t.Errorf("OutEdges(a) = %v, want 2 edges", out)
	}
	if in := g.InEdges(a); len(in) != 1 || in[0].Bandwidth != 3 {
		t.Errorf("InEdges(a) = %v", in)
	}
	if d := g.Degree(a); d != 3 {
		t.Errorf("Degree(a) = %d, want 3", d)
	}
	if md := g.MaxDegree(); md != 3 {
		t.Errorf("MaxDegree = %d, want 3", md)
	}
	if g.OutEdges(TaskID(99)) != nil || g.InEdges(TaskID(99)) != nil {
		t.Error("edge queries out of range should be nil")
	}
	if g.Degree(TaskID(99)) != 0 {
		t.Error("Degree out of range should be 0")
	}
}

func TestTotalBandwidth(t *testing.T) {
	g := New("t")
	a := g.MustAddTask("a")
	b := g.MustAddTask("b")
	g.MustAddEdge(a, b, 10)
	g.MustAddEdge(b, a, 20)
	if got := g.TotalBandwidth(); got != 30 {
		t.Errorf("TotalBandwidth = %v, want 30", got)
	}
}

func TestWeaklyConnected(t *testing.T) {
	g := New("t")
	a := g.MustAddTask("a")
	b := g.MustAddTask("b")
	g.MustAddTask("island")
	g.MustAddEdge(a, b, 1)
	if g.WeaklyConnected() {
		t.Error("graph with island reported connected")
	}

	g2 := New("t2")
	x := g2.MustAddTask("x")
	y := g2.MustAddTask("y")
	z := g2.MustAddTask("z")
	g2.MustAddEdge(y, x, 1) // direction against discovery order
	g2.MustAddEdge(y, z, 1)
	if !g2.WeaklyConnected() {
		t.Error("weakly connected graph reported disconnected")
	}

	single := New("s")
	single.MustAddTask("only")
	if !single.WeaklyConnected() {
		t.Error("single-task graph should be connected")
	}
}

func TestClone(t *testing.T) {
	g := MustApp("PIP")
	c := g.Clone()
	if c.Name() != g.Name() || c.NumTasks() != g.NumTasks() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone differs in shape")
	}
	// Mutating the clone must not affect the original.
	c.MustAddTask("extra")
	if g.NumTasks() == c.NumTasks() {
		t.Error("clone shares task storage with original")
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(i) != c.Edge(i) {
			t.Errorf("edge %d differs after clone", i)
		}
	}
}

func TestDOTDeterministicAndComplete(t *testing.T) {
	g := MustApp("PIP")
	d1, d2 := g.DOT(), g.DOT()
	if d1 != d2 {
		t.Error("DOT output not deterministic")
	}
	if !strings.Contains(d1, "digraph \"PIP\"") {
		t.Error("DOT missing digraph header")
	}
	if got := strings.Count(d1, "->"); got != g.NumEdges() {
		t.Errorf("DOT has %d edges, want %d", got, g.NumEdges())
	}
	if got := strings.Count(d1, "label="); got != g.NumTasks()+g.NumEdges() {
		t.Errorf("DOT has %d labels, want %d", got, g.NumTasks()+g.NumEdges())
	}
}

func TestStringSummary(t *testing.T) {
	g := MustApp("VOPD")
	if got := g.String(); got != "VOPD: 16 tasks, 21 edges" {
		t.Errorf("String() = %q", got)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := New("t")
	a := g.MustAddTask("a")
	b := g.MustAddTask("b")
	g.MustAddEdge(a, b, 1)
	// Corrupt the internal edge list the way a buggy deserializer could.
	g.edges[0].Dst = TaskID(42)
	if err := g.Validate(); err == nil {
		t.Error("Validate missed an invalid endpoint")
	}
	g.edges[0].Dst = a
	g.edges[0].Src = a
	if err := g.Validate(); err == nil {
		t.Error("Validate missed a self-loop")
	}
	for _, bw := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		g.edges[0] = Edge{Src: a, Dst: b, Bandwidth: bw}
		if err := g.Validate(); err == nil {
			t.Errorf("Validate missed bandwidth %v", bw)
		}
	}
}
