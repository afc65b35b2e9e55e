package main

import (
	"math"
	"testing"
	"time"

	"phonocmap"
)

// TestMeasureNetworkBuild checks the network_build row against the
// testing package's own allocation count for the same build.
func TestMeasureNetworkBuild(t *testing.T) {
	r, err := measureNetworkBuild(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.Case != "mesh-3x3" || r.Tiles != 9 || r.BuildsMeasured < minBuildsPerCase {
		t.Errorf("row %+v: want case mesh-3x3, 9 tiles, at least %d builds", r, minBuildsPerCase)
	}
	if r.MsPerOp <= 0 || r.BytesPerOp <= 0 {
		t.Errorf("row %+v: want positive ms/op and bytes/op", r)
	}
	want := testing.AllocsPerRun(5, func() {
		if _, err := phonocmap.NewMeshNetwork(3, 3); err != nil {
			t.Fatal(err)
		}
	})
	if math.Abs(r.AllocsPerOp-want) > 0.02*want {
		t.Errorf("allocs/op %v, testing.AllocsPerRun says %v", r.AllocsPerOp, want)
	}
}
