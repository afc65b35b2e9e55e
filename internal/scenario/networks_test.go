package scenario

import (
	"sync"
	"testing"

	"phonocmap/internal/analysis"
	"phonocmap/internal/cg"
	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/network"
)

// TestNetworkCacheBuildsOncePerArch compiles specs on one architecture
// from several goroutines at once through one cache: the first request
// builds the network, every other one waits for it and shares it, and a
// spec on another architecture gets a network of its own. The first
// request builds the network's path table with it, so the compiles build
// exactly one table, the cache charges the entry for the network and the
// built table, and the problems' evaluations build none. The build
// counters are process-wide, so this test must not run in parallel with
// others.
func TestNetworkCacheBuildsOncePerArch(t *testing.T) {
	nc := NewNetworkCache(0)
	builds, reuses, tables := network.BuildsTotal(), NetworkReusesTotal(), analysis.TableBuildsTotal()
	const n = 8
	comps := make([]*Compiled, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range comps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := Spec{App: config.AppSpec{Builtin: "VOPD"}, Algorithm: "rs", Seed: int64(i + 1)}
			comps[i], errs[i] = nc.Compile(spec)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
		if comps[i].Network != comps[0].Network {
			t.Fatalf("compile %d got another network than compile 0", i)
		}
	}
	if got := network.BuildsTotal() - builds; got != 1 {
		t.Errorf("%d concurrent compiles on one architecture built %d networks, want 1", n, got)
	}
	if got := NetworkReusesTotal() - reuses; got != n-1 {
		t.Errorf("%d concurrent compiles reused the network %d times, want %d", n, got, n-1)
	}
	if got := analysis.TableBuildsTotal() - tables; got != 1 {
		t.Errorf("%d compiles on one architecture built %d path tables, want 1", n, got)
	}
	tab := core.TableFor(comps[0].Network)
	if tab == nil {
		t.Fatal("a 4x4 network has no path table")
	}
	if want := comps[0].Network.Bytes() + tab.Bytes(); nc.bytes != want {
		t.Errorf("the cache charges %d bytes for a 4x4 network, want its network and table, %d", nc.bytes, want)
	}
	mapping := core.IdentityMapping(comps[0].App.NumTasks())
	for _, comp := range comps[:2] {
		if _, err := comp.Problem.Evaluate(mapping); err != nil {
			t.Fatal(err)
		}
	}
	if got := analysis.TableBuildsTotal() - tables; got != 1 {
		t.Errorf("after two problems' first evaluations, one network has had %d path tables built, want 1", got)
	}
	torus, err := nc.Compile(Spec{App: config.AppSpec{Builtin: "VOPD"}, Arch: config.ArchSpec{Topology: "torus"}})
	if err != nil {
		t.Fatal(err)
	}
	if torus.Network == comps[0].Network {
		t.Error("a torus spec got the mesh's network")
	}
}

// TestNetworkCacheEvictsLeastRecentlyUsed bounds a cache to about two
// 4×4 networks with their path tables and checks that a third
// architecture evicts the least recently used one, which a later
// compile builds again, and that a network larger than the whole bound
// is handed out but not kept.
func TestNetworkCacheEvictsLeastRecentlyUsed(t *testing.T) {
	compile := func(nc *NetworkCache, topology, router string) *network.Network {
		t.Helper()
		comp, err := nc.Compile(Spec{App: config.AppSpec{Builtin: "MWD"}, Arch: config.ArchSpec{Topology: topology, Router: router}})
		if err != nil {
			t.Fatal(err)
		}
		return comp.Network
	}
	probe := NewNetworkCache(0)
	compile(probe, "mesh", "")
	one := probe.bytes

	nc := NewNetworkCache(2*one + one/2)
	mesh := compile(nc, "mesh", "")
	compile(nc, "torus", "")
	if compile(nc, "mesh", "") != mesh {
		t.Fatal("a cached architecture was built again")
	}
	compile(nc, "mesh", "cygnus") // evicts the torus, the least recently used
	if compile(nc, "mesh", "") != mesh {
		t.Error("the most recently used network was evicted")
	}
	builds := network.BuildsTotal()
	compile(nc, "torus", "")
	if got := network.BuildsTotal() - builds; got != 1 {
		t.Errorf("the evicted torus took %d builds to compile again, want 1", got)
	}
	if nc.bytes > nc.maxBytes {
		t.Errorf("cache holds %d bytes, bound %d", nc.bytes, nc.maxBytes)
	}

	tiny := NewNetworkCache(one / 2)
	first := compile(tiny, "mesh", "")
	if compile(tiny, "mesh", "") == first || tiny.bytes != 0 || tiny.lru.Len() != 0 {
		t.Errorf("a network larger than the bound was kept (%d bytes, %d entries)", tiny.bytes, tiny.lru.Len())
	}
}

// TestNetworkCacheChargesWhatItHolds compiles the Table II grid's specs,
// the eight bundled applications on auto-sized meshes and tori, through
// one unbounded cache. The cache must charge exactly what it holds: for
// each distinct network, the network's size plus its built path table's.
func TestNetworkCacheChargesWhatItHolds(t *testing.T) {
	nc := NewNetworkCache(0)
	seen := make(map[*network.Network]bool)
	var want int64
	for _, name := range cg.AppNames() {
		for _, topology := range []string{"mesh", "torus"} {
			comp, err := nc.Compile(Spec{App: config.AppSpec{Builtin: name}, Arch: config.ArchSpec{Topology: topology}})
			if err != nil {
				t.Fatal(err)
			}
			if nw := comp.Network; !seen[nw] {
				seen[nw] = true
				want += nw.Bytes()
				if tab := core.TableFor(nw); tab != nil {
					want += tab.Bytes()
				}
			}
		}
	}
	if len(seen) != 8 {
		t.Errorf("the Table II specs compiled on %d networks, want 8", len(seen))
	}
	if nc.bytes != want {
		t.Errorf("the cache charges %.2f MiB (%d bytes) for the Table II networks, which hold %.2f MiB (%d bytes) with their tables",
			float64(nc.bytes)/(1<<20), nc.bytes, float64(want)/(1<<20), want)
	}
}
