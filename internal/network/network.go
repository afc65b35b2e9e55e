// Package network composes a topology, an optical router architecture and
// a routing algorithm into a concrete photonic NoC instance, and expands
// every tile-to-tile communication into its element-level optical path:
// the exact sequence of PSEs and crossings traversed, with ring states,
// per-element entry losses and inter-router waveguide losses.
//
// These paths are the substrate of the physical-layer analysis: insertion
// loss is the end-to-end accumulated loss, and crosstalk arises where the
// paths of two simultaneously active communications share an element
// (package analysis).
package network

import (
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"

	"phonocmap/internal/obs"
	"phonocmap/internal/photonic"
	"phonocmap/internal/route"
	"phonocmap/internal/router"
	"phonocmap/internal/topo"
)

// GlobalElem uniquely identifies a photonic element instance across the
// whole network: element e of the router at tile t has ID
// t*arch.NumElements() + e.
type GlobalElem int

// Step is one element traversal of a network-level optical path.
type Step struct {
	// Node identifies the traversed element instance network-wide.
	Node GlobalElem
	// Tile is the tile whose router contains the element.
	Tile topo.TileID
	// Kind, In, Out and State describe the traversal physics; State is
	// the ring state this path's configuration requires (victim-centric
	// state for crosstalk analysis).
	Kind  photonic.Kind
	In    photonic.Port
	Out   photonic.Port
	State photonic.State
	// Loss is the element's dB entry loss; LossBefore is the accumulated
	// dB loss of everything before this element (elements and
	// waveguides). Both are <= 0.
	Loss       float64
	LossBefore float64
	// LinLossBefore and LinDownstream are the linear-domain factors of
	// the first-order crosstalk formula, precomputed at network build so
	// the analysis hot loop multiplies instead of exponentiating:
	// LinLossBefore = 10^(LossBefore/10) is the aggressor-side prefix
	// attenuation, LinDownstream = 10^((TotalLoss-LossBefore-Loss)/10)
	// the victim-side suffix attenuation (excluding the generating
	// element, the Ki*Li = Ki simplification).
	LinLossBefore float64
	LinDownstream float64
}

// Path is the element-level optical path of one communication.
type Path struct {
	Src, Dst topo.TileID
	// Steps are the router-element traversals in order. Inter-router
	// waveguide propagation (and any layout crossings assigned to links)
	// contributes loss between steps but no crosstalk, because link
	// geometry is not modelled; see DESIGN.md §3.1.
	Steps []Step
	// TotalLoss is the end-to-end insertion loss in dB (ILdB of the
	// paper; <= 0).
	TotalLoss float64
	// InvLinLoss is 10^(-TotalLoss/10), the inverse of the path's linear
	// transmission (>= 1), precomputed at build like the steps' factors:
	// a victim's noise times InvLinLoss is its linear noise-to-signal
	// ratio, which the analysis compares without a logarithm.
	InvLinLoss float64
	// Hops is the number of links traversed.
	Hops int
}

// Network is an immutable photonic NoC instance with its tile-pair paths
// precomputed: every ordered pair for New, the requested ones for
// NewForPairs.
type Network struct {
	top    topo.Topology
	arch   *router.Architecture
	algo   route.Algorithm
	params photonic.Params
	paths  [][]*Path // [src][dst]; nil on the diagonal and for pairs left out
	steps  int       // total steps over all paths

	// memo is the value Memo derived from the network, built once.
	memoOnce sync.Once
	memo     any
}

// builds and buildNanos count completed builds and the wall time they
// took, process-wide; the service exposes them as
// phonocmap_network_builds_total and phonocmap_network_build_seconds_total.
var (
	builds     = obs.NewCounter()
	buildNanos = obs.NewCounter()
)

// BuildsTotal returns the number of networks New and NewForPairs have
// built since process start.
func BuildsTotal() int64 { return builds.Value() }

// BuildSecondsTotal returns the wall time spent on those builds, in
// seconds.
func BuildSecondsTotal() float64 { return time.Duration(buildNanos.Value()).Seconds() }

// New builds the network and eagerly expands every ordered tile pair into
// its element-level path, validating on the way that the router
// architecture supports every turn the routing algorithm produces.
func New(t topo.Topology, arch *router.Architecture, algo route.Algorithm, p photonic.Params) (*Network, error) {
	return build(t, arch, algo, p, nil)
}

// NewForPairs is New restricted to the given ordered (src, dst) tile
// pairs: it routes and expands only those, for a caller that evaluates
// one fixed set of communications, such as the robustness and
// link-failure analyses of one mapping. Each requested pair gets the path
// New gives it; a pair that cannot be routed, or needs a turn the router
// lacks, fails the build with New's error for that pair, the first such
// pair in src-major order. Path returns nil for every pair left out, and
// the analysis evaluators report a communication on such a pair as an
// error. Pairs with src == dst need no path and are ignored; duplicates
// are allowed.
func NewForPairs(t topo.Topology, arch *router.Architecture, algo route.Algorithm, p photonic.Params, pairs [][2]topo.TileID) (*Network, error) {
	n := t.NumTiles()
	want := make([]bool, n*n)
	for _, pr := range pairs {
		if pr[0] < 0 || int(pr[0]) >= n || pr[1] < 0 || int(pr[1]) >= n {
			return nil, fmt.Errorf("network: pair %d->%d out of range for %d tiles", pr[0], pr[1], n)
		}
		want[int(pr[0])*n+int(pr[1])] = true
	}
	return build(t, arch, algo, p, want)
}

// build is New and NewForPairs: it expands the ordered pairs want marks
// (want[src*n+dst]), or every pair when want is nil.
//
// A first pass routes every wanted pair in src-major order, checking each
// hop's turn and then the ejection turn, so a rejected build reports the
// first failing pair; it also counts the steps. A second pass carves every
// path's steps from one exactly-sized slab (each Path.Steps has
// len == cap, so an append by a caller reallocates instead of writing
// into the next path) and converts each distinct dB value to linear once.
func build(t topo.Topology, arch *router.Architecture, algo route.Algorithm, p photonic.Params, want []bool) (*Network, error) {
	//phonocmap:wallclock feeds only the process-wide build-time counter, never a path or a score
	start := time.Now()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(t); err != nil {
		return nil, err
	}
	n := t.NumTiles()
	nw := &Network{top: t, arch: arch, algo: algo, params: p}

	// Resolve every turn the router supports once, all into one slab; a
	// nil entry is an unsupported turn.
	var turns [router.NumPorts][router.NumPorts][]router.Step
	numTurnSteps := 0
	for in := router.Port(0); in < router.NumPorts; in++ {
		for out := router.Port(0); out < router.NumPorts; out++ {
			trav, _ := arch.Path(in, out)
			numTurnSteps += len(trav)
		}
	}
	turnSlab := make([]router.Step, 0, numTurnSteps)
	for in := router.Port(0); in < router.NumPorts; in++ {
		for out := router.Port(0); out < router.NumPorts; out++ {
			first := len(turnSlab)
			var ok bool
			if turnSlab, ok = arch.AppendSteps(turnSlab, p, in, out); ok {
				turns[in][out] = turnSlab[first:len(turnSlab):len(turnSlab)]
			}
		}
	}
	turnSteps := func(tile topo.TileID, in, out router.Port) ([]router.Step, error) {
		if s := turns[in][out]; s != nil {
			return s, nil
		}
		return nil, fmt.Errorf("network: router %s at tile %d does not support turn %v->%v required by %s routing",
			arch.Name(), tile, in, out, algo.Name())
	}
	wanted := func(src, dst topo.TileID) bool {
		return src != dst && (want == nil || want[int(src)*n+int(dst)])
	}

	routes := make([][]topo.Link, n*n)
	total, numPaths := 0, 0
	for src := topo.TileID(0); int(src) < n; src++ {
		for dst := topo.TileID(0); int(dst) < n; dst++ {
			if !wanted(src, dst) {
				continue
			}
			links, err := algo.Route(t, src, dst)
			if err != nil {
				return nil, fmt.Errorf("network: routing %d->%d: %w", src, dst, err)
			}
			if err := route.Check(src, dst, links); err != nil {
				return nil, fmt.Errorf("network: %s produced a broken path: %w", algo.Name(), err)
			}
			// Check guarantees at least one link, so the ejection turn
			// always exists.
			in := router.Local
			for _, l := range links {
				s, err := turnSteps(l.From, in, dirToPort(l.Dir))
				if err != nil {
					return nil, err
				}
				total += len(s)
				in = entryPort(l.Dir)
			}
			s, err := turnSteps(dst, in, router.Local)
			if err != nil {
				return nil, err
			}
			total += len(s)
			routes[int(src)*n+int(dst)] = links
			numPaths++
		}
	}

	slab := make([]Step, 0, total)
	pathSlab := make([]Path, 0, numPaths)
	rows := make([]*Path, n*n)
	nw.paths = make([][]*Path, n)
	lin := newLinearMemo()
	numElems := arch.NumElements()
	for src := topo.TileID(0); int(src) < n; src++ {
		row := rows[int(src)*n : int(src+1)*n : int(src+1)*n]
		nw.paths[src] = row
		for dst := topo.TileID(0); int(dst) < n; dst++ {
			if !wanted(src, dst) {
				continue
			}
			links := routes[int(src)*n+int(dst)]
			first := len(slab)
			acc := 0.0
			appendTurn := func(tile topo.TileID, steps []router.Step) {
				for _, s := range steps {
					slab = append(slab, Step{
						Node:       GlobalElem(int(tile)*numElems + int(s.Elem)),
						Tile:       tile,
						Kind:       s.Kind,
						In:         s.In,
						Out:        s.Out,
						State:      s.State,
						Loss:       s.Loss,
						LossBefore: acc,
					})
					acc += s.Loss
				}
			}
			in := router.Local
			for _, l := range links {
				appendTurn(l.From, turns[in][dirToPort(l.Dir)])
				acc += linkLoss(p, l)
				in = entryPort(l.Dir)
			}
			appendTurn(dst, turns[in][router.Local])
			steps := slab[first:len(slab):len(slab)]
			for i := range steps {
				s := &steps[i]
				s.LinLossBefore = lin.of(s.LossBefore)
				s.LinDownstream = lin.of(acc - s.LossBefore - s.Loss)
			}
			pathSlab = append(pathSlab, Path{Src: src, Dst: dst, Steps: steps, TotalLoss: acc, InvLinLoss: lin.of(-acc), Hops: len(links)})
			row[dst] = &pathSlab[len(pathSlab)-1]
		}
	}
	nw.steps = total
	builds.Inc()
	//phonocmap:wallclock the elapsed time only feeds the build-time counter
	buildNanos.Add(int64(time.Since(start)))
	return nw, nil
}

// linkLoss is the dB loss of one inter-router link: waveguide
// propagation plus any layout crossings assigned to it.
func linkLoss(p photonic.Params, l topo.Link) float64 {
	return p.PropagationLoss(l.LengthCm) + float64(l.Crossings)*p.CrossingLoss
}

// linearMemo converts dB values to linear factors through
// photonic.DBToLinear, once per distinct value of one build. It is an
// open-addressing table keyed by the exact bits of the dB value, so every
// factor is the one DBToLinear returns. A zero factor marks an empty
// slot: a value whose factor underflows to zero is recomputed each time.
type linearMemo struct {
	slots []memoSlot // 1<<(64-shift) slots, at most half full
	shift uint
	used  int
}

type memoSlot struct {
	db  uint64
	lin float64
}

func newLinearMemo() *linearMemo {
	return &linearMemo{slots: make([]memoSlot, 1<<8), shift: 64 - 8}
}

func (m *linearMemo) of(db float64) float64 {
	k := math.Float64bits(db)
	i := m.find(k)
	if lin := m.slots[i].lin; lin != 0 {
		return lin
	}
	lin := photonic.DBToLinear(db)
	if lin != 0 {
		m.slots[i] = memoSlot{k, lin}
		if m.used++; 2*m.used > len(m.slots) {
			m.grow()
		}
	}
	return lin
}

// find returns the slot holding key k, or the empty slot where it
// belongs. The home slot is the top bits of a Fibonacci hash, which
// depend on every bit of the key.
func (m *linearMemo) find(k uint64) uint64 {
	mask := uint64(len(m.slots) - 1)
	i := (k * 0x9E3779B97F4A7C15) >> m.shift
	for m.slots[i].lin != 0 && m.slots[i].db != k {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table and reinserts every entry.
func (m *linearMemo) grow() {
	old := m.slots
	m.slots, m.shift = make([]memoSlot, 2*len(old)), m.shift-1
	for _, s := range old {
		if s.lin != 0 {
			m.slots[m.find(s.db)] = s
		}
	}
}

// dirToPort maps a link direction to the router port a signal leaves
// through.
func dirToPort(d topo.Direction) router.Port {
	switch d {
	case topo.North:
		return router.North
	case topo.East:
		return router.East
	case topo.South:
		return router.South
	default:
		return router.West
	}
}

// entryPort returns the router port a signal arrives on after following a
// link in direction d: the opposite side of the receiving router.
func entryPort(d topo.Direction) router.Port {
	return dirToPort(d.Opposite())
}

// NumTiles returns the tile count of the underlying topology.
func (nw *Network) NumTiles() int { return nw.top.NumTiles() }

// Topology returns the underlying topology.
func (nw *Network) Topology() topo.Topology { return nw.top }

// Router returns the router architecture.
func (nw *Network) Router() *router.Architecture { return nw.arch }

// Routing returns the routing algorithm.
func (nw *Network) Routing() route.Algorithm { return nw.algo }

// Params returns the photonic parameter set.
func (nw *Network) Params() photonic.Params { return nw.params }

// Path returns the precomputed path from src to dst. For src == dst it
// returns an empty zero-loss path (InvLinLoss 1); out-of-range tiles, and
// a pair that NewForPairs left out, return nil.
func (nw *Network) Path(src, dst topo.TileID) *Path {
	n := nw.NumTiles()
	if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return nil
	}
	if src == dst {
		return &Path{Src: src, Dst: dst, InvLinLoss: 1}
	}
	return nw.paths[src][dst]
}

// NumElements returns the total number of router element instances in the
// network (tiles x elements per router).
func (nw *Network) NumElements() int {
	return nw.NumTiles() * nw.arch.NumElements()
}

// WorstPathLoss returns the largest-magnitude TotalLoss over all ordered
// tile pairs — the loss of the network's worst physical route,
// independent of any application mapping. On a NewForPairs network it
// covers only the requested pairs.
func (nw *Network) WorstPathLoss() float64 {
	worst := 0.0
	for src := range nw.paths {
		for _, p := range nw.paths[src] {
			if p != nil && p.TotalLoss < worst {
				worst = p.TotalLoss
			}
		}
	}
	return worst
}

// Memo returns the value build derives from the network, running build
// at most once per network: the first caller runs it, concurrent callers
// wait for it, and every later call returns its value, which lives as
// long as the network. A network has one memo, which the analysis
// package's path table uses.
func (nw *Network) Memo(build func(*Network) any) any {
	nw.memoOnce.Do(func() { nw.memo = build(nw) })
	return nw.memo
}

// Bytes returns the heap size of the network's paths: the step slab,
// the paths and the per-source rows, the part of a network that grows
// with its tile count.
func (nw *Network) Bytes() int64 {
	n := int64(nw.NumTiles())
	numPaths := int64(0)
	for _, row := range nw.paths {
		for _, p := range row {
			if p != nil {
				numPaths++
			}
		}
	}
	return int64(nw.steps)*int64(unsafe.Sizeof(Step{})) +
		numPaths*int64(unsafe.Sizeof(Path{})) +
		n*n*int64(unsafe.Sizeof((*Path)(nil))) + n*int64(unsafe.Sizeof([]*Path(nil)))
}

// String summarizes the instance, e.g.
// "mesh-4x4 + crux + xy (16 tiles, 272 elements)".
func (nw *Network) String() string {
	return fmt.Sprintf("%s + %s + %s (%d tiles, %d elements)",
		nw.top.Name(), nw.arch.Name(), nw.algo.Name(), nw.NumTiles(), nw.NumElements())
}
