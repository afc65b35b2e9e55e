package cg

import "testing"

// appShape records the task/edge counts the paper states or implies for
// each benchmark application (Section III).
var appShape = map[string]struct {
	tasks int
	edges int
}{
	"263dec_mp3dec": {14, 14},
	"263enc_mp3enc": {12, 12}, // paper: "12 edges"
	"DVOPD":         {32, 44},
	"MPEG-4":        {12, 26}, // paper: "26 edges"
	"MWD":           {12, 12}, // paper: "12 edges"
	"PIP":           {8, 8},
	"VOPD":          {16, 21},
	"Wavelet":       {22, 29},
}

func TestAppNamesMatchesPaperSuite(t *testing.T) {
	names := AppNames()
	if len(names) != 8 {
		t.Fatalf("AppNames() returned %d apps, want 8: %v", len(names), names)
	}
	for _, n := range names {
		if _, ok := appShape[n]; !ok {
			t.Errorf("unexpected app %q", n)
		}
	}
}

func TestAppTaskCountsMatchPaper(t *testing.T) {
	for name, shape := range appShape {
		g := MustApp(name)
		if g.NumTasks() != shape.tasks {
			t.Errorf("%s: %d tasks, paper says %d", name, g.NumTasks(), shape.tasks)
		}
		if g.NumEdges() != shape.edges {
			t.Errorf("%s: %d edges, want %d", name, g.NumEdges(), shape.edges)
		}
	}
}

func TestAppsAreValidAndConnected(t *testing.T) {
	for _, name := range AppNames() {
		g := MustApp(name)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
		}
		if !g.WeaklyConnected() {
			t.Errorf("%s: not weakly connected", name)
		}
	}
}

func TestAppReturnsFreshCopies(t *testing.T) {
	a := MustApp("PIP")
	b := MustApp("PIP")
	a.MustAddTask("mutant")
	if a.NumTasks() == b.NumTasks() {
		t.Error("App returned shared graph instances")
	}
}

func TestAppUnknownName(t *testing.T) {
	if _, err := App("nope"); err == nil {
		t.Error("App accepted an unknown name")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustApp did not panic on unknown name")
		}
	}()
	MustApp("nope")
}

func TestMPEG4IsDensest(t *testing.T) {
	// The paper singles out MPEG-4 (26 edges on 12 tasks) as the most
	// constrained CG of the equal-size apps. Check edge density ordering
	// against 263enc_mp3enc and MWD (12 edges each).
	mpeg := MustApp("MPEG-4")
	enc := MustApp("263enc_mp3enc")
	mwd := MustApp("MWD")
	if mpeg.NumEdges() <= enc.NumEdges() || mpeg.NumEdges() <= mwd.NumEdges() {
		t.Error("MPEG-4 should have strictly more edges than 263enc_mp3enc and MWD")
	}
	// SDRAM hub dominates the degree distribution.
	hub, ok := mpeg.TaskByName("sdram")
	if !ok {
		t.Fatal("MPEG-4 has no sdram task")
	}
	if mpeg.Degree(hub) != mpeg.MaxDegree() {
		t.Error("sdram is not the highest-degree MPEG-4 task")
	}
}

func TestDVOPDIsTwoVOPDs(t *testing.T) {
	d := MustApp("DVOPD")
	v := MustApp("VOPD")
	if d.NumTasks() != 2*v.NumTasks() {
		t.Errorf("DVOPD tasks = %d, want %d", d.NumTasks(), 2*v.NumTasks())
	}
	if d.NumEdges() != 2*v.NumEdges()+2 {
		t.Errorf("DVOPD edges = %d, want %d", d.NumEdges(), 2*v.NumEdges()+2)
	}
	// The two copies are linked through their ARM controllers.
	arm1, ok1 := d.TaskByName("arm_1")
	arm2, ok2 := d.TaskByName("arm_2")
	if !ok1 || !ok2 {
		t.Fatal("DVOPD missing arm_1/arm_2")
	}
	if !d.HasEdge(arm1, arm2) || !d.HasEdge(arm2, arm1) {
		t.Error("DVOPD ARM controllers not cross-linked")
	}
}

func TestAppBandwidthsPositive(t *testing.T) {
	for _, name := range AppNames() {
		g := MustApp(name)
		for i, e := range g.Edges() {
			if e.Bandwidth <= 0 {
				t.Errorf("%s edge %d has bandwidth %v", name, i, e.Bandwidth)
			}
		}
	}
}

// TestBuiltinGraphsAreShared checks that Builtin hands out one read-only
// graph per name, equal to App's, that refuses AddTask and AddEdge and
// stays unchanged, while App and Clone give mutable graphs.
func TestBuiltinGraphsAreShared(t *testing.T) {
	for _, name := range AppNames() {
		g, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := Builtin(name); again != g {
			t.Errorf("%s: a second Builtin gave another graph", name)
		}
		fresh := MustApp(name)
		if g.String() != fresh.String() || g.DOT() != fresh.DOT() {
			t.Errorf("%s: the shared graph %v differs from App's %v", name, g, fresh)
		}
		if _, err := g.AddTask("extra"); err == nil {
			t.Errorf("%s: the shared graph accepted AddTask", name)
		}
		// An edge AddEdge would otherwise accept: one the app lacks.
		src, dst := TaskID(0), TaskID(1)
		for fresh.HasEdge(src, dst) {
			dst++
		}
		if err := g.AddEdge(src, dst, 1); err == nil {
			t.Errorf("%s: the shared graph accepted AddEdge", name)
		}
		if g.NumTasks() != fresh.NumTasks() || g.NumEdges() != fresh.NumEdges() {
			t.Errorf("%s: the shared graph changed to %v", name, g)
		}
		for _, m := range []*Graph{fresh, g.Clone()} {
			id, err := m.AddTask("extra")
			if err != nil {
				t.Fatalf("%s: a fresh graph refused AddTask: %v", name, err)
			}
			if err := m.AddEdge(0, id, 1); err != nil {
				t.Fatalf("%s: a fresh graph refused AddEdge: %v", name, err)
			}
		}
	}
	if _, err := Builtin("nope"); err == nil {
		t.Error("Builtin accepted an unknown name")
	}
}
