package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
)

// sampleEntry fabricates a realistic entry: a run result with trace,
// island breakdown and a report, varied by i so entries are
// distinguishable.
func sampleEntry(key string, i int) Entry {
	return Entry{
		Key: key,
		Result: core.RunResult{
			Algorithm: "rpbla",
			Objective: core.MaximizeSNR,
			Mapping:   core.Mapping{0, 1, 2, 3},
			Score:     core.Score{Cost: float64(i), WorstSNRDB: -float64(i)},
			Evals:     100 + i,
			Duration:  time.Duration(i) * time.Millisecond,
			Seed:      int64(i),
		},
		Trace:       []scenario.TraceEvent{{Island: 0, Evals: i + 1, Score: core.Score{Cost: float64(i)}, AtMs: 1.5}},
		IslandEvals: []int{100 + i},
		Report:      &scenario.Report{Power: &scenario.PowerReport{Feasible: i%2 == 0}},
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleEntry("k1", 7)
	if err := f.Put("k1", want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := f.Get("k1")
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	// The payload must survive byte-for-byte: compare canonical JSON.
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Errorf("round trip changed the entry:\ngot  %s\nwant %s", gb, wb)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d, want 1", f.Len())
	}

	// Reopen: the entry must survive the "restart".
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got2, ok, err := f2.Get("k1")
	if err != nil || !ok {
		t.Fatalf("get after reopen: ok=%v err=%v", ok, err)
	}
	gb2, _ := json.Marshal(got2)
	if string(gb2) != string(wb) {
		t.Errorf("reopen changed the entry:\ngot  %s\nwant %s", gb2, wb)
	}
}

func TestFileMissAndDelete(t *testing.T) {
	f, err := OpenFile(t.TempDir(), FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := f.Get("nope"); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
	if err := f.Delete("nope"); err != nil {
		t.Fatalf("deleting a missing key errored: %v", err)
	}
	if err := f.Put("k", sampleEntry("k", 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := f.Get("k"); ok {
		t.Error("deleted key still present")
	}
	if f.Len() != 0 {
		t.Errorf("Len = %d after delete, want 0", f.Len())
	}
	if st := f.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats after delete: %+v", st)
	}
}

func TestFileArbitraryKeys(t *testing.T) {
	// Keys are normally hex digests, but the layout must tolerate
	// anything (fabricated test keys, future key schemes).
	f, err := OpenFile(t.TempDir(), FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"with/slash", "with space", "", "../../escape", "UPPER"}
	for i, k := range keys {
		if err := f.Put(k, sampleEntry(k, i)); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	for _, k := range keys {
		if e, ok, err := f.Get(k); !ok || err != nil || e.Key != k {
			t.Errorf("get %q: ok=%v err=%v key=%q", k, ok, err, e.Key)
		}
	}
	// Path-traversal keys must stay inside the store directory.
	entries, err := os.ReadDir(filepath.Join(f.Dir(), ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("store wrote outside its directory: %d entries beside it", len(entries))
	}
}

func TestFileKeysNewestFirst(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "c"} {
		if err := f.Put(k, sampleEntry(k, i)); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes regardless of filesystem granularity.
		at := time.Now().Add(time.Duration(i-10) * time.Second)
		if err := os.Chtimes(EntryPath(dir, k), at, at); err != nil {
			t.Fatal(err)
		}
	}
	// The in-memory index carries Put-time recency; reopen to read the
	// aged mtimes from disk.
	f.Close()
	f2, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f2.Keys(), []string{"c", "b", "a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Keys() = %v, want %v", got, want)
	}
}

func TestFileSizeCapEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	probe, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put("probe", sampleEntry("probe", 0)); err != nil {
		t.Fatal(err)
	}
	entrySize := probe.Stats().Bytes
	if err := probe.Delete("probe"); err != nil {
		t.Fatal(err)
	}
	probe.Close()

	// Cap at ~3 entries, insert 5 with strictly increasing recency: the
	// two oldest must go.
	f, err := OpenFile(dir, FileOptions{MaxBytes: entrySize*3 + entrySize/2})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	for i, k := range keys {
		if err := f.Put(k, sampleEntry(k, 0)); err != nil {
			t.Fatal(err)
		}
		f.mu.Lock()
		if m := f.index[k]; m != nil {
			m.mtime = time.Unix(int64(1000+i), 0)
		}
		f.mu.Unlock()
	}
	for _, k := range []string{"k0", "k1"} {
		if _, ok, _ := f.Get(k); ok {
			t.Errorf("oldest entry %s survived the cap", k)
		}
	}
	for _, k := range []string{"k2", "k3", "k4"} {
		if _, ok, err := f.Get(k); !ok || err != nil {
			t.Errorf("recent entry %s evicted (ok=%v err=%v)", k, ok, err)
		}
	}
	st := f.Stats()
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.Bytes > f.opts.MaxBytes {
		t.Errorf("bytes %d exceed cap %d", st.Bytes, f.opts.MaxBytes)
	}
}

func TestFileCorruptQuarantinedOnOpen(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := sampleEntry("good", 1)
	if err := f.Put("good", good); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("bad", sampleEntry("bad", 2)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Truncate one entry mid-payload — a torn write.
	badPath := EntryPath(dir, "bad")
	b, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := f2.Get("bad"); ok {
		t.Error("corrupt entry served")
	}
	if got, ok, err := f2.Get("good"); !ok || err != nil {
		t.Errorf("good entry lost (ok=%v err=%v)", ok, err)
	} else {
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(good)
		if string(gb) != string(wb) {
			t.Error("good entry changed by neighbour corruption")
		}
	}
	if st := f2.Stats(); st.Quarantined != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 quarantined / 1 entry", st)
	}
	qdir := filepath.Join(dir, quarantineDir)
	qs, err := os.ReadDir(qdir)
	if err != nil || len(qs) != 1 {
		t.Errorf("quarantine dir has %d files (err=%v), want 1", len(qs), err)
	}
}

func TestFileCorruptQuarantinedOnGet(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put("k", sampleEntry("k", 3)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte behind the store's back.
	path := EntryPath(dir, "k")
	b, _ := os.ReadFile(path)
	b[len(b)-2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := f.Get("k"); ok || err == nil {
		t.Errorf("damaged entry: ok=%v err=%v, want miss with error", ok, err)
	}
	if f.Len() != 0 {
		t.Errorf("damaged entry still indexed (Len=%d)", f.Len())
	}
	if st := f.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	// The miss is now stable, without further errors.
	if _, ok, err := f.Get("k"); ok || err != nil {
		t.Errorf("second get: ok=%v err=%v, want clean miss", ok, err)
	}
}

// TestFileVersionMismatchQuarantined: an entry written under any other
// encoding version, a future one or version 1 (whose link-failure
// reports may count cuts of unused tiles as unreachable), is quarantined,
// so the key is recomputed.
func TestFileVersionMismatchQuarantined(t *testing.T) {
	for _, version := range []string{"v999", "v1"} {
		dir := t.TempDir()
		f, err := OpenFile(dir, FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Put("k", sampleEntry("k", 1)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		path := EntryPath(dir, "k")
		b, _ := os.ReadFile(path)
		current := fmt.Sprintf("phonocmap-store v%d ", Version)
		if !bytes.HasPrefix(b, []byte(current)) {
			t.Fatalf("entry header %q does not start with %q", b[:len(current)], current)
		}
		b = []byte("phonocmap-store " + version + " " + string(b[len(current):]))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		f2, err := OpenFile(dir, FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if f2.Len() != 0 {
			t.Errorf("%s entry accepted (Len=%d)", version, f2.Len())
		}
		if st := f2.Stats(); st.Quarantined != 1 {
			t.Errorf("%s: quarantined = %d, want 1", version, st.Quarantined)
		}
		f2.Close()
	}
}

func TestFileClosed(t *testing.T) {
	f, err := OpenFile(t.TempDir(), FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("Close not idempotent: %v", err)
	}
	if err := f.Put("k", Entry{}); err != ErrClosed {
		t.Errorf("Put after close: %v, want ErrClosed", err)
	}
	if _, _, err := f.Get("k"); err != ErrClosed {
		t.Errorf("Get after close: %v, want ErrClosed", err)
	}
	if err := f.Delete("k"); err != ErrClosed {
		t.Errorf("Delete after close: %v, want ErrClosed", err)
	}
}

func TestNullStore(t *testing.T) {
	var s Store = Null{}
	if err := s.Put("k", sampleEntry("k", 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("k"); ok || err != nil {
		t.Error("null store remembered something")
	}
	if s.Len() != 0 || len(s.Keys()) != 0 {
		t.Error("null store non-empty")
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := (Null{}).Stats(); st != (Stats{}) {
		t.Errorf("null stats = %+v, want zeros", st)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	e := sampleEntry("k", 1)
	good, err := encode(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(good); err != nil {
		t.Fatalf("decode of valid encoding failed: %v", err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"no newline":      []byte("phonocmap-store v1 abc 3"),
		"short header":    []byte("phonocmap-store v1\npayload"),
		"wrong magic":     append([]byte("other-store v1 00 2\n{}"), nil...),
		"truncated":       good[:len(good)-3],
		"extended":        append(append([]byte{}, good...), '!'),
		"flipped payload": flip(good, len(good)-2),
		"flipped header":  flip(good, len("phonocmap-store v1 ")+3),
	}
	for name, b := range cases {
		if _, err := decode(b); err == nil {
			t.Errorf("%s: decode accepted damaged input", name)
		} else if _, ok := err.(errCorrupt); !ok {
			t.Errorf("%s: error %v is not errCorrupt", name, err)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0xff
	return out
}
