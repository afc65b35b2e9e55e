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
// its architecture together with its path table (up to core's tile cap),
// so every cell or job on one architecture shares one network and one
// table. Networks and tables are immutable and each Problem owns its own
// scratch, so sharing changes no result. The cache is keyed by the
// normalized ArchSpec's canonical JSON (NetworkKey) and bounded by the
// summed size of its networks and their built tables, evicting the least
// recently used; a network larger than the bound is handed out but not
// kept. It is safe for concurrent use: concurrent first requests for one
// architecture build it, and its table, once.
//
// A local runner and a server each keep one cache, bounded by
// NetworkCacheBytes, across all their sweeps and jobs.
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

// NetworkCacheBytes bounds the network cache of a local runner
// (runner.NewLocal) and of a server: the summed size of the networks
// their compiles share and of their path tables, as NewNetworkCache
// charges them. It is set from the two workloads that share networks.
// perfbench's table2 grid compiles over the eight Table II
// architectures, 3×3 to 6×6 meshes and tori, which are charged 13.1 MiB
// (networks 7.0 MiB, tables 6.1 MiB). The bound keeps all eight, so a
// runner builds each once across its sweeps. perfbench's service
// workload compiles over three architectures, the 3×3 Crux and Cygnus
// meshes and the 4×4 Crux mesh, 1.13 MiB with their tables, so a server
// that receives many architectures keeps at most about 19 MiB more than
// that workload does. A network above the bound, such as an 8×8 mesh
// (11.8 MB, no table), is handed out but not kept.
const NetworkCacheBytes = 20 << 20

// networkReuses counts compiles served a network from a cache,
// process-wide; the service exposes it as phonocmap_network_reuses_total.
var networkReuses = obs.NewCounter()

// NetworkReusesTotal returns the number of compiles served a network
// from a NetworkCache since process start.
func NetworkReusesTotal() int64 { return networkReuses.Value() }

// NewNetworkCache returns an empty cache holding up to maxBytes of
// networks and path tables (network.Network.Bytes plus
// analysis.PathTable.Bytes); 0 means no bound.
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

// network returns the normalized architecture's network, from the cache
// when it holds one. The first request builds it and its path table
// (core.TableFor), and the entry is charged for both as built; a
// network that gets no table, above the tile cap or with a failed table
// build, is charged for none, and its problems use the pair kernel. A
// failed network build is not kept.
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
		e.size = e.nw.Bytes()
		if tab := core.TableFor(e.nw); tab != nil {
			e.size += tab.Bytes()
		}
	}
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
