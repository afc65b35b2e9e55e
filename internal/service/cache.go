package service

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"phonocmap/internal/obs"
	"phonocmap/internal/store"
)

// CacheStats summarizes result-cache effectiveness for /healthz and
// GET /v1/cache.
type CacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Store describes the persistent tier; nil when the server runs
	// memory-only (no -cache-dir).
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats summarizes the persistent store tier: lookup traffic
// (gets/hits — warming loads count, they are real store reads), write
// traffic (puts are completed write-behind persists, pending is the
// write-behind backlog), failures, and the store's own size and
// maintenance counters.
type StoreStats struct {
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Gets        uint64 `json:"gets"`
	Hits        uint64 `json:"hits"`
	Puts        uint64 `json:"puts"`
	Errors      uint64 `json:"errors"`
	Evictions   uint64 `json:"evictions"`
	Quarantined uint64 `json:"quarantined"`
	Pending     int64  `json:"pending_writes"`
	Warmed      int    `json:"warmed"`
}

// resultCache is the service's two-tier result cache: a bounded
// in-memory LRU in front of a persistent content-addressed store.
// Optimization runs are deterministic in their spec, so entries never go
// stale; the LRU bound only caps memory and the store makes completed
// work survive restarts. Reads are read-through (an LRU miss consults
// the store and promotes the hit); writes are write-behind (the worker
// returns as soon as the LRU holds the entry, a background writer
// persists it). Effectiveness counters are obs instruments so /healthz
// and /metrics read one source of truth.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter

	// store is never nil (store.Null when no persistence is configured);
	// hasStore gates the read-through/write-behind paths so a memory-only
	// cache costs exactly what it did before the store tier existed.
	store    store.Store
	hasStore bool

	storeGets   *obs.Counter
	storeHits   *obs.Counter
	storePuts   *obs.Counter
	storeErrors *obs.Counter

	pending atomic.Int64 // write-behind backlog (queued + in flight)
	warmed  atomic.Int64 // entries preloaded by boot-time warming

	writes chan *store.Entry
	quit   chan struct{}
	writer sync.WaitGroup
	closed atomic.Bool
}

// writeBacklog bounds the write-behind queue. Past it, the enqueueing
// worker persists synchronously instead — bounded memory, no loss.
const writeBacklog = 256

func newResultCache(capacity int, st store.Store) *resultCache {
	if st == nil {
		st = store.Null{}
	}
	_, isNull := st.(store.Null)
	c := &resultCache{
		cap:         capacity,
		ll:          list.New(),
		items:       make(map[string]*list.Element, max(capacity, 0)),
		hits:        obs.NewCounter(),
		misses:      obs.NewCounter(),
		evictions:   obs.NewCounter(),
		store:       st,
		hasStore:    !isNull,
		storeGets:   obs.NewCounter(),
		storeHits:   obs.NewCounter(),
		storePuts:   obs.NewCounter(),
		storeErrors: obs.NewCounter(),
		writes:      make(chan *store.Entry, writeBacklog),
		quit:        make(chan struct{}),
	}
	if c.hasStore {
		c.writer.Add(1)
		go c.writeLoop()
	}
	return c
}

// get returns the cached entry for key, refreshing its recency. An LRU
// miss consults the persistent store (read-through) and promotes a disk
// hit into the LRU, so a restarted node answers repeated specs from disk
// without recomputing. The entry's slices are shared with the cache:
// callers must not modify them.
func (c *resultCache) get(key string) (store.Entry, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits.Inc()
		c.ll.MoveToFront(el)
		e := *el.Value.(*store.Entry)
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()

	if c.hasStore {
		c.storeGets.Inc()
		e, ok, err := c.store.Get(key)
		if err != nil {
			c.storeErrors.Inc()
		}
		if ok {
			c.storeHits.Inc()
			c.hits.Inc()
			c.insert(&e)
			return e, true
		}
	}
	c.misses.Inc()
	return store.Entry{}, false
}

// put stores a completed run's entry in both tiers: the LRU immediately
// (evicting the least recently used entry when full), the persistent
// store asynchronously off the request path. A zero-or-negative LRU
// capacity disables only the memory tier — with a store attached the
// result still writes through to disk and the put still counts, so a
// disk-only cache configuration is not a silent drop. The cache shares
// e's slices: the caller must not modify them afterwards.
func (c *resultCache) put(e store.Entry) {
	c.insert(&e)
	if c.hasStore {
		c.enqueueWrite(&e)
	}
}

// insert adds an entry to the LRU without touching the hit/miss
// counters — the memory tier of put, and the promotion path of
// read-through gets and boot warming.
func (c *resultCache) insert(e *store.Entry) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.Key]; ok {
		c.ll.MoveToFront(el)
		el.Value = e
		return
	}
	c.items[e.Key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*store.Entry).Key)
		c.evictions.Inc()
	}
}

// enqueueWrite hands an entry to the background writer. When the
// backlog is full (or the cache is closing) the write happens
// synchronously on the caller — persistence is never silently dropped.
func (c *resultCache) enqueueWrite(e *store.Entry) {
	c.pending.Add(1)
	if c.closed.Load() {
		c.persist(e)
		return
	}
	select {
	case c.writes <- e:
	default:
		c.persist(e)
	}
}

// writeLoop is the write-behind goroutine: it drains the queue until
// close asks it to finish whatever is already enqueued and exit.
func (c *resultCache) writeLoop() {
	defer c.writer.Done()
	for {
		select {
		case e := <-c.writes:
			c.persist(e)
		case <-c.quit:
			for {
				select {
				case e := <-c.writes:
					c.persist(e)
				default:
					return
				}
			}
		}
	}
}

// persist writes one entry to the store and settles its pending slot.
func (c *resultCache) persist(e *store.Entry) {
	defer c.pending.Add(-1)
	if err := c.store.Put(e.Key, *e); err != nil {
		c.storeErrors.Inc()
		return
	}
	c.storePuts.Inc()
}

// flush blocks until the write-behind backlog is empty — the boundary a
// graceful shutdown needs so a restarted node finds everything the old
// one completed.
func (c *resultCache) flush() {
	for c.pending.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// close drains the write-behind queue and closes the store. Idempotent.
func (c *resultCache) close() {
	if c.closed.Swap(true) {
		return
	}
	if c.hasStore {
		close(c.quit)
		c.writer.Wait()
		c.flush() // synchronous fallbacks still in flight
	}
	_ = c.store.Close()
}

// warm preloads the most recently persisted entries into the LRU —
// bounded by limit and the LRU capacity — so a restarted node's hottest
// keys hit memory from the first request. Entries are loaded with
// bounded concurrency (decode dominates) and then inserted oldest-first,
// preserving store recency as LRU recency. Honors ctx: cancellation
// stops loading and warms whatever already arrived. Returns the number
// of entries warmed.
func (c *resultCache) warm(ctx context.Context, limit, workers int) int {
	if !c.hasStore || c.cap <= 0 {
		return 0
	}
	keys := c.store.Keys() // newest first
	n := min(limit, c.cap)
	if n <= 0 || n > len(keys) {
		n = min(len(keys), c.cap)
	}
	keys = keys[:n]
	if len(keys) == 0 {
		return 0
	}
	if workers <= 0 {
		workers = 4
	}

	loaded := make([]*store.Entry, len(keys))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, key := range keys {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, key string) {
			defer wg.Done()
			defer func() { <-sem }()
			c.storeGets.Inc()
			e, ok, err := c.store.Get(key)
			if err != nil {
				c.storeErrors.Inc()
			}
			if !ok {
				return
			}
			c.storeHits.Inc()
			loaded[i] = &e
		}(i, key)
	}
	wg.Wait()

	warmed := 0
	for i := len(loaded) - 1; i >= 0; i-- { // oldest first → newest ends most recent
		if loaded[i] == nil {
			continue
		}
		c.insert(loaded[i])
		warmed++
	}
	c.warmed.Add(int64(warmed))
	return warmed
}

// clear empties both tiers, returning (memory entries, store entries)
// removed — the DELETE /v1/cache admin operation. The write-behind
// backlog is flushed first so an in-flight persist cannot resurrect a
// just-cleared key.
func (c *resultCache) clear() (int, int) {
	c.flush()
	c.mu.Lock()
	memory := c.ll.Len()
	c.ll.Init()
	c.items = make(map[string]*list.Element, max(c.cap, 0))
	c.mu.Unlock()
	persisted := 0
	if c.hasStore {
		for _, key := range c.store.Keys() {
			if err := c.store.Delete(key); err != nil {
				c.storeErrors.Inc()
				continue
			}
			persisted++
		}
	}
	return memory, persisted
}

// size reads the live entry count.
func (c *resultCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// storeStats snapshots the persistent tier (nil when memory-only).
func (c *resultCache) storeStats() *StoreStats {
	if !c.hasStore {
		return nil
	}
	st := StoreStats{
		Entries: c.store.Len(),
		Gets:    uint64(c.storeGets.Value()),
		Hits:    uint64(c.storeHits.Value()),
		Puts:    uint64(c.storePuts.Value()),
		Errors:  uint64(c.storeErrors.Value()),
		Pending: c.pending.Load(),
		Warmed:  int(c.warmed.Load()),
	}
	if sr, ok := c.store.(store.StatReader); ok {
		s := sr.Stats()
		st.Bytes = s.Bytes
		st.Evictions = s.Evictions
		st.Quarantined = s.Quarantined
	}
	return &st
}

func (c *resultCache) stats() CacheStats {
	return CacheStats{
		Size:      c.size(),
		Capacity:  c.cap,
		Hits:      uint64(c.hits.Value()),
		Misses:    uint64(c.misses.Value()),
		Evictions: uint64(c.evictions.Value()),
		Store:     c.storeStats(),
	}
}
