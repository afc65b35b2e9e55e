package scenario

import (
	"container/list"
	"encoding/json"
	"sync"

	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/network"
	"phonocmap/internal/obs"
)

// NetworkCache shares networks between compiles: a compile through the
// cache takes its network from the cache, built on the first request for
// its architecture, so every cell or job on one architecture shares one
// network and, below core's tile cap, the one path table its problems
// build on their first evaluation. Networks are immutable and each
// Problem owns its own scratch, so sharing changes no result. The cache
// is keyed by the normalized ArchSpec's canonical JSON (NetworkKey) and
// bounded by the summed size of its networks and their tables, built or
// not, evicting the least recently used; a network larger than the bound
// is handed out but not kept. It is safe for concurrent use:
// concurrent first requests for one architecture build it once.
type NetworkCache struct {
	maxBytes int64 // 0: unbounded

	mu      sync.Mutex
	entries map[string]*netEntry
	lru     list.List // of *netEntry, most recently used first
	bytes   int64     // summed size of the entries in lru
}

// netEntry is one cached architecture: ready is closed once the build
// has settled, and elem is set once the entry is in the LRU list. An
// entry whose build failed is dropped, and its waiters get the error.
type netEntry struct {
	key   string
	ready chan struct{}
	nw    *network.Network
	err   error
	size  int64
	elem  *list.Element
}

// networkReuses counts compiles served a network from a cache,
// process-wide; the service exposes it as phonocmap_network_reuses_total.
var networkReuses = obs.NewCounter()

// NetworkReusesTotal returns the number of compiles served a network
// from a NetworkCache since process start.
func NetworkReusesTotal() int64 { return networkReuses.Value() }

// NewNetworkCache returns an empty cache holding up to maxBytes of
// networks and path tables (network.Network.Bytes plus core.TableBytes);
// 0 means no bound.
func NewNetworkCache(maxBytes int64) *NetworkCache {
	return &NetworkCache{maxBytes: maxBytes, entries: make(map[string]*netEntry)}
}

// NetworkKey returns the cache key of a normalized architecture: its
// canonical JSON. Every field of ArchSpec is part of it, so two
// architectures share a network only when they describe the same one.
func NetworkKey(arch config.ArchSpec) string {
	b, err := json.Marshal(arch)
	if err != nil {
		// ArchSpec is plain data; marshalling cannot fail.
		panic("scenario: arch marshal failed: " + err.Error())
	}
	return string(b)
}

// Compile is the package-level Compile with the spec's network taken
// from the cache. A nil cache builds the network, as Compile does.
func (nc *NetworkCache) Compile(spec Spec) (*Compiled, error) {
	app, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	nw, err := nc.network(spec.Arch)
	if err != nil {
		return nil, err
	}
	obj, err := core.ParseObjective(spec.Objective)
	if err != nil {
		return nil, err
	}
	prob, err := core.NewProblem(app, nw, obj)
	if err != nil {
		return nil, err
	}
	return &Compiled{Spec: spec, App: app, Network: nw, Problem: prob}, nil
}

// Forget drops a normalized architecture's network from the cache; the
// compiles it was handed to keep it, and a later compile builds it again.
func (nc *NetworkCache) Forget(arch config.ArchSpec) {
	key := NetworkKey(arch)
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if e, ok := nc.entries[key]; ok && e.elem != nil {
		nc.lru.Remove(e.elem)
		delete(nc.entries, key)
		nc.bytes -= e.size
	}
}

// network returns the normalized architecture's network, from the cache
// when it holds one. The first request builds it; its path table is left
// to the first problem that evaluates on it, but the entry is charged
// for the table from the start (core.TableBytes). A failed build is not
// kept.
func (nc *NetworkCache) network(arch config.ArchSpec) (*network.Network, error) {
	if nc == nil {
		return arch.Build()
	}
	key := NetworkKey(arch)
	nc.mu.Lock()
	if e, ok := nc.entries[key]; ok {
		if e.elem != nil {
			nc.lru.MoveToFront(e.elem)
		}
		nc.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		networkReuses.Inc()
		return e.nw, nil
	}
	e := &netEntry{key: key, ready: make(chan struct{})}
	nc.entries[key] = e
	nc.mu.Unlock()

	e.nw, e.err = arch.Build()
	if e.err == nil {
		e.size = e.nw.Bytes() + core.TableBytes(e.nw)
	}
	// Settle the entry before waking the waiters, so that one of them
	// can Forget it as soon as it has the network.
	nc.mu.Lock()
	if e.err != nil {
		delete(nc.entries, key)
	} else {
		e.elem = nc.lru.PushFront(e)
		nc.bytes += e.size
		for nc.maxBytes > 0 && nc.bytes > nc.maxBytes {
			old := nc.lru.Remove(nc.lru.Back()).(*netEntry)
			delete(nc.entries, old.key)
			nc.bytes -= old.size
		}
	}
	nc.mu.Unlock()
	close(e.ready)
	return e.nw, e.err
}
