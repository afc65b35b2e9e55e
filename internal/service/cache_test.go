package service

import (
	"fmt"
	"sync"
	"testing"

	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
	"phonocmap/internal/store"
)

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, nil)
	entry := func(key string, cost float64, islands ...int) store.Entry {
		return store.Entry{Key: key, Result: core.RunResult{Score: core.Score{Cost: cost}}, IslandEvals: islands}
	}
	c.put(entry("a", 1, 10))
	c.put(entry("b", 2, 20))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put(entry("c", 3, 30)) // evicts b (a was just touched)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if e, ok := c.get("a"); !ok || e.Result.Score.Cost != 1 {
		t.Error("a lost or corrupted")
	}
	if e, ok := c.get("c"); !ok || e.Result.Score.Cost != 3 {
		t.Error("c lost or corrupted")
	}
	st := c.stats()
	if st.Size != 2 || st.Capacity != 2 {
		t.Errorf("stats %+v", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", st.Hits, st.Misses)
	}

	// Overwriting an existing key must not grow the cache.
	over := entry("a", 10, 99, 101)
	over.Trace = []TraceEvent{{Evals: 1}}
	over.Report = &scenario.Report{Power: &scenario.PowerReport{Feasible: true}}
	c.put(over)
	if e, ok := c.get("a"); !ok || e.Result.Score.Cost != 10 || len(e.Trace) != 1 ||
		len(e.IslandEvals) != 2 || e.IslandEvals[0] != 99 || e.IslandEvals[1] != 101 ||
		e.Report == nil || e.Report.Power == nil || !e.Report.Power.Feasible {
		t.Error("overwrite lost data")
	}
	if c.stats().Size != 2 {
		t.Error("overwrite grew the cache")
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(-1, nil)
	c.put(store.Entry{Key: "a", IslandEvals: []int{1}})
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache stored an entry")
	}
}

// TestResultCacheConcurrentHammer drives the cache from many goroutines
// with a key space much larger than the capacity, so every operation mix
// occurs concurrently: hits, misses, overwrites, LRU evictions and stats
// reads. Run under -race (the CI race step covers this package) it
// proves the mutex discipline of get/put/stats.
func TestResultCacheConcurrentHammer(t *testing.T) {
	const (
		capacity   = 8
		goroutines = 12
		iters      = 400
		keySpace   = 64 // >> capacity: constant eviction pressure
	)
	c := newResultCache(capacity, nil)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%keySpace)
				switch i % 4 {
				case 0:
					c.put(store.Entry{
						Key: key, Result: core.RunResult{Score: core.Score{Cost: float64(i)}},
						Trace: []TraceEvent{{Evals: i}}, IslandEvals: []int{i, i + 1}, Report: &scenario.Report{},
					})
				case 1:
					if e, ok := c.get(key); ok {
						// An entry must always be read back whole: case 0
						// writes (trace len 1, islands len 2, a report),
						// case 2 writes (no trace, islands len 1, nil
						// report). Any other combination means a torn entry.
						trace, islands, rep := e.Trace, e.IslandEvals, e.Report
						if len(islands) == 0 ||
							(len(trace) == 1) != (len(islands) == 2) ||
							(len(trace) == 1) != (rep != nil) {
							t.Errorf("torn cache entry: res=%+v trace=%d islands=%v report=%v",
								e.Result.Score, len(trace), islands, rep != nil)
							return
						}
					}
				case 2:
					c.put(store.Entry{Key: key, IslandEvals: []int{i}})
					c.get(fmt.Sprintf("k%d", i%keySpace))
				default:
					c.stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.stats()
	if st.Size > capacity {
		t.Errorf("cache exceeded capacity: %d > %d", st.Size, capacity)
	}
	if st.Hits+st.Misses == 0 {
		t.Error("hammer recorded no lookups")
	}
}
