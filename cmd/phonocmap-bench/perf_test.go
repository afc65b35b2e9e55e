package main

import (
	"testing"
	"time"
)

// TestPerfSections runs the two sections perf writes, parallel_eval and
// fleet, at small settings and checks the shape of each row.
func TestPerfSections(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r, err := measureParallelEval("4x4-dense", 4, 14, 48, 1, workers, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if r.Case != "4x4-dense" || r.Workers != workers || r.EvalWorkers != workers {
			t.Errorf("row %+v: want case 4x4-dense at %d workers, all used", r, workers)
		}
		if r.EvalsMeasured < minEvalsPerPoint || r.EvalsPerSec <= 0 {
			t.Errorf("row %+v: want at least %d evaluations at a positive rate", r, minEvalsPerPoint)
		}
	}
	f, err := measureFleet(1, 2, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Nodes != 1 || f.WorkersPerNode != 1 || f.Cells != 2 {
		t.Errorf("row %+v: want 2 cells on 1 node of 1 worker", f)
	}
	if f.DurationMs <= 0 || f.CellsPerSec <= 0 {
		t.Errorf("row %+v: want positive duration and cells/s", f)
	}
}
