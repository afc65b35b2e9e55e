package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
	"phonocmap/internal/store"
	"phonocmap/internal/topo"
)

// cacheSample fabricates a realistic cached computation for sample i
// under key.
func cacheSample(key string, i int) store.Entry {
	res := core.RunResult{
		Algorithm: "rs",
		Mapping:   core.Mapping{topo.TileID(i), topo.TileID(i + 1)},
		Score:     core.Score{Cost: float64(i) + 0.5, WorstSNRDB: 12.5},
		Evals:     100 + i,
		Duration:  time.Duration(i) * time.Millisecond,
		Seed:      int64(i),
	}
	trace := []TraceEvent{{Island: 0, Evals: i, Score: res.Score}}
	islands := []int{i, i * 2}
	rep := &scenario.Report{Power: &scenario.PowerReport{Feasible: i%2 == 0}}
	return store.Entry{Key: key, Result: res, Trace: trace, IslandEvals: islands, Report: rep}
}

func mustOpenFileStore(t *testing.T, dir string) *store.File {
	t.Helper()
	st, err := store.OpenFile(dir, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCacheWriteBehindPersists proves a put lands in the store and that a
// fresh cache over the same directory reads it through byte-identically.
func TestCacheWriteBehindPersists(t *testing.T) {
	dir := t.TempDir()
	c := newResultCache(4, mustOpenFileStore(t, dir))
	want := cacheSample("k7", 7)
	c.put(want)
	c.close()

	c2 := newResultCache(4, mustOpenFileStore(t, dir))
	defer c2.close()
	got, ok := c2.get("k7")
	if !ok {
		t.Fatal("entry did not survive the cache restart")
	}
	assertJSONEqual(t, "result", got.Result, want.Result)
	assertJSONEqual(t, "trace", got.Trace, want.Trace)
	assertJSONEqual(t, "islands", got.IslandEvals, want.IslandEvals)
	assertJSONEqual(t, "report", got.Report, want.Report)
	st := c2.stats()
	if st.Store == nil || st.Store.Hits != 1 || st.Store.Gets != 1 {
		t.Errorf("store stats = %+v, want 1 get / 1 hit", st.Store)
	}
}

// TestCacheZeroCapWritesThrough is the satellite contract: a
// zero-or-negative LRU capacity disables only the memory tier — with a
// store attached the result still writes through to disk and the put
// still counts.
func TestCacheZeroCapWritesThrough(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			dir := t.TempDir()
			c := newResultCache(capacity, mustOpenFileStore(t, dir))
			defer c.close()
			want := cacheSample("k3", 3)
			c.put(want)
			c.flush()
			if got := c.storePuts.Value(); got != 1 {
				t.Errorf("store puts = %d, want 1", got)
			}
			if c.store.Len() != 1 {
				t.Errorf("store entries = %d, want 1", c.store.Len())
			}
			if c.size() != 0 {
				t.Errorf("memory tier held %d entries with capacity %d", c.size(), capacity)
			}
			// Disk-only reads serve straight from the store.
			got, ok := c.get("k3")
			if !ok || got.Result.Score.Cost != want.Result.Score.Cost {
				t.Error("disk-only read-through failed")
			}
			if c.size() != 0 {
				t.Error("read-through promoted into a disabled memory tier")
			}
		})
	}
}

// TestCacheClearEmptiesBothTiers exercises the DELETE /v1/cache
// primitive.
func TestCacheClearEmptiesBothTiers(t *testing.T) {
	dir := t.TempDir()
	c := newResultCache(8, mustOpenFileStore(t, dir))
	defer c.close()
	for i := 0; i < 5; i++ {
		c.put(cacheSample(fmt.Sprintf("k%d", i), i))
	}
	memory, persisted := c.clear()
	if memory != 5 || persisted != 5 {
		t.Errorf("clear = (%d, %d), want (5, 5)", memory, persisted)
	}
	if c.size() != 0 || c.store.Len() != 0 {
		t.Errorf("tiers not empty after clear: memory=%d store=%d", c.size(), c.store.Len())
	}
	if _, ok := c.get("k0"); ok {
		t.Error("cleared key still served")
	}
}

// seedStore persists n entries with strictly increasing mtimes so the
// warming order is unambiguous. Returns the store directory.
func seedStore(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	st := mustOpenFileStore(t, dir)
	base := time.Now().Add(-24 * time.Hour)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%04d", i)
		if err := st.Put(key, cacheSample(key, i)); err != nil {
			t.Fatal(err)
		}
		// Age each entry explicitly: entry i is i seconds newer than entry
		// 0, so "most recent N" is exactly the highest-numbered N keys.
		mt := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(store.EntryPath(dir, key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCacheWarmingMostRecent boots a 100-entry LRU over 500 persisted
// entries: exactly the most-recent 100 must be warm, in store recency
// order.
func TestCacheWarmingMostRecent(t *testing.T) {
	const persisted, capacity = 500, 100
	dir := seedStore(t, persisted)
	c := newResultCache(capacity, mustOpenFileStore(t, dir))
	defer c.close()

	warmed := c.warm(context.Background(), capacity, 8)
	if warmed != capacity {
		t.Fatalf("warmed = %d, want %d", warmed, capacity)
	}
	if c.size() != capacity {
		t.Fatalf("memory tier = %d entries, want %d", c.size(), capacity)
	}
	c.mu.Lock()
	for i := 0; i < persisted; i++ {
		key := fmt.Sprintf("k%04d", i)
		_, ok := c.items[key]
		if want := i >= persisted-capacity; ok != want {
			t.Errorf("key %s warm=%v, want %v", key, ok, want)
		}
	}
	c.mu.Unlock()
	if got := int(c.warmed.Load()); got != capacity {
		t.Errorf("warmed counter = %d, want %d", got, capacity)
	}
	// Warming reads are real store reads: gets and hits both count.
	if g, h := c.storeGets.Value(), c.storeHits.Value(); g != capacity || h != capacity {
		t.Errorf("store gets/hits = %d/%d, want %d/%d", g, h, capacity, capacity)
	}
}

// TestCacheWarmingRespectsContext proves a cancelled context stops the
// preload instead of blocking boot.
func TestCacheWarmingRespectsContext(t *testing.T) {
	dir := seedStore(t, 50)
	c := newResultCache(50, mustOpenFileStore(t, dir))
	defer c.close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if warmed := c.warm(ctx, 50, 4); warmed != 0 {
		t.Errorf("cancelled warm loaded %d entries, want 0", warmed)
	}
	if c.size() != 0 {
		t.Errorf("cancelled warm left %d entries in memory", c.size())
	}
}

// TestCacheWarmedHitByteIdentical completes the warming satellite: an
// entry produced by a live put, warmed into a fresh cache after a
// restart, replays byte-for-byte.
func TestCacheWarmedHitByteIdentical(t *testing.T) {
	dir := t.TempDir()
	c := newResultCache(4, mustOpenFileStore(t, dir))
	c.put(cacheSample("answer", 42))
	got, ok := c.get("answer")
	if !ok {
		t.Fatal("live entry missing")
	}
	live, err := json.Marshal(struct {
		R core.RunResult
		T []TraceEvent
		I []int
		P *scenario.Report
	}{got.Result, got.Trace, got.IslandEvals, got.Report})
	if err != nil {
		t.Fatal(err)
	}
	c.close()

	c2 := newResultCache(4, mustOpenFileStore(t, dir))
	defer c2.close()
	if warmed := c2.warm(context.Background(), 4, 2); warmed != 1 {
		t.Fatalf("warmed = %d, want 1", warmed)
	}
	warm, ok := c2.get("answer")
	if !ok {
		t.Fatal("warmed entry missing")
	}
	if c2.storeGets.Value() != 1 {
		t.Error("warmed hit went back to disk")
	}
	warmBytes, err := json.Marshal(struct {
		R core.RunResult
		T []TraceEvent
		I []int
		P *scenario.Report
	}{warm.Result, warm.Trace, warm.IslandEvals, warm.Report})
	if err != nil {
		t.Fatal(err)
	}
	if string(live) != string(warmBytes) {
		t.Errorf("warmed hit differs from live run:\nlive %s\nwarm %s", live, warmBytes)
	}
}

func assertJSONEqual(t *testing.T, what string, got, want any) {
	t.Helper()
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Errorf("%s differs:\ngot  %s\nwant %s", what, gb, wb)
	}
}
