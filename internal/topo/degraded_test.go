package topo

import "testing"

func TestDegradeRemovesLink(t *testing.T) {
	m, err := NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Degrade(m, [][2]TileID{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "mesh-3x3-degraded" {
		t.Errorf("Name = %q", d.Name())
	}
	if d.FailedCount() != 1 {
		t.Errorf("FailedCount = %d", d.FailedCount())
	}
	if _, ok := d.OutLink(0, East); ok {
		t.Error("failed link still reachable via OutLink")
	}
	if _, ok := d.LinkTo(0, 1); ok {
		t.Error("failed link still reachable via LinkTo")
	}
	// The reverse direction survives (one lane failed).
	if _, ok := d.LinkTo(1, 0); !ok {
		t.Error("reverse link vanished")
	}
	if len(d.Links()) != len(m.Links())-1 {
		t.Errorf("links = %d, want %d", len(d.Links()), len(m.Links())-1)
	}
	// Neighbors of tile 0 shrink by one.
	if got, want := len(d.Neighbors(0)), len(m.Neighbors(0))-1; got != want {
		t.Errorf("neighbors = %d, want %d", got, want)
	}
	if d.NumTiles() != 9 {
		t.Errorf("NumTiles = %d", d.NumTiles())
	}
}

func TestDegradeErrors(t *testing.T) {
	m, _ := NewMesh(3, 3)
	if _, err := Degrade(m, [][2]TileID{{0, 5}}); err == nil {
		t.Error("accepted nonexistent link")
	}
}

// TestDegradeMayIsolate: isolating the corner tile 0 (links 0->1, 1->0,
// 0->3, 3->0) is not an error here. Routing reports the pairs it cannot
// reach, so a link-failure study can still score a mapping that leaves
// the tile empty; config.ArchSpec.Build rejects a spec that isolates a
// tile.
func TestDegradeMayIsolate(t *testing.T) {
	m, _ := NewMesh(3, 3)
	d, err := Degrade(m, [][2]TileID{{0, 1}, {1, 0}, {0, 3}, {3, 0}})
	if err != nil {
		t.Fatalf("isolating failure set rejected: %v", err)
	}
	if got := d.Neighbors(0); len(got) != 0 {
		t.Errorf("isolated tile 0 has neighbors %v", got)
	}
}

func TestDegradedValidates(t *testing.T) {
	// Validate demands reciprocal links, so degrade both lanes.
	m, _ := NewMesh(4, 4)
	d, err := Degrade(m, [][2]TileID{{5, 6}, {6, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(d); err != nil {
		t.Errorf("Validate(degraded): %v", err)
	}
}
