package sweep

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// fuzzMaxCells bounds the grids FuzzExpand expands: a larger grid costs
// time per input and checks nothing a smaller one does not.
const fuzzMaxCells = 1024

// FuzzExpand decodes arbitrary JSON into a grid and expands it. Expand
// must never panic; a grid whose Size exceeds MaxExpandCells must be
// rejected before any cell is built; and every returned cell's scenario
// must be a fixed point of Normalize, keeping its Key and canonical JSON
// through a second Normalize, because the service checks and keys cells
// without normalizing them again. Its seed corpus is in testdata/fuzz.
func FuzzExpand(f *testing.F) {
	f.Add([]byte(`{"apps":[{"builtin":"PIP"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		size := spec.Size()
		if size > MaxExpandCells {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cells, err := Expand(spec)
			runtime.ReadMemStats(&after)
			if err == nil || cells != nil || !strings.Contains(err.Error(), "engine limit") {
				t.Fatalf("a %d-cell grid expanded to %d cells (error %v)", size, len(cells), err)
			}
			// A cell takes more than a byte, so a rejection that built
			// cells would allocate more than MaxExpandCells bytes.
			if n := after.TotalAlloc - before.TotalAlloc; n > MaxExpandCells {
				t.Fatalf("rejecting a %d-cell grid allocated %d bytes", size, n)
			}
			return
		}
		if size > fuzzMaxCells {
			return
		}
		cells, err := Expand(spec)
		if err != nil {
			return
		}
		if len(cells) != size {
			t.Fatalf("Size() = %d but Expand returned %d cells", size, len(cells))
		}
		for _, c := range cells {
			sc := c.Scenario()
			key, canon := sc.Key(), mustJSON(t, sc)
			again := sc
			if _, err := again.Normalize(); err != nil {
				t.Fatalf("cell %s does not normalize again: %v", c.Label(), err)
			}
			if again.Key() != key || !bytes.Equal(mustJSON(t, again), canon) {
				t.Fatalf("a second Normalize changed cell %s:\nfirst  %s\nsecond %s", c.Label(), canon, mustJSON(t, again))
			}
		}
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
