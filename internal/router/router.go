// Package router describes optical router microarchitectures as netlists
// of photonic elements (microring PSEs and waveguide crossings) plus a
// path table: for every (input port, output port) pair the router
// supports, the ordered list of elements the optical signal traverses and
// the microring states that configuration requires.
//
// This element-level description is what lets the analysis package compute
// insertion loss per path and locate the shared elements where two
// simultaneously active signals exchange first-order crosstalk, exactly as
// in Section II-C of the paper. New router architectures plug in through
// Builder without any change to the rest of the tool, matching the
// paper's "fully customizable" design.
package router

import (
	"fmt"
	"sort"

	"phonocmap/internal/photonic"
)

// Port identifies one of the five ports of a tile router: the local
// gateway (injection/ejection) plus the four compass directions.
type Port uint8

const (
	Local Port = iota
	North
	East
	South
	West
	// NumPorts is the port count of the 5-port routers modelled here.
	NumPorts
)

// String returns the short port name.
func (p Port) String() string {
	switch p {
	case Local:
		return "local"
	case North:
		return "north"
	case East:
		return "east"
	case South:
		return "south"
	case West:
		return "west"
	default:
		return fmt.Sprintf("router.Port(%d)", uint8(p))
	}
}

// Valid reports whether p is one of the five ports.
func (p Port) Valid() bool { return p < NumPorts }

// ElemID indexes an element within one Architecture.
type ElemID int

// Element is one photonic device instance in the router netlist.
type Element struct {
	Kind  photonic.Kind
	Label string
}

// Traversal is one step of an optical path through the router: the signal
// enters element Elem at photonic port In while the element is held in
// state State by this router configuration. The output port follows from
// the element physics (photonic.Traverse); crossings ignore State.
type Traversal struct {
	Elem  ElemID
	In    photonic.Port
	State photonic.State
}

// Step is a resolved traversal, with the element kind, exit port and
// dB loss filled in. Analysis code consumes steps.
type Step struct {
	Elem  ElemID
	Kind  photonic.Kind
	In    photonic.Port
	Out   photonic.Port
	State photonic.State
	Loss  float64 // dB, <= 0
}

// Architecture is an immutable router microarchitecture: its element
// netlist and the supported port-to-port optical paths.
type Architecture struct {
	name  string
	elems []Element
	// paths[in][out] is nil when the turn is unsupported.
	paths [NumPorts][NumPorts][]Traversal
}

// Name returns the architecture name, e.g. "crux".
func (a *Architecture) Name() string { return a.name }

// NumElements returns the number of photonic elements in the netlist.
func (a *Architecture) NumElements() int { return len(a.elems) }

// Element returns the element with the given ID.
func (a *Architecture) Element(id ElemID) (Element, bool) {
	if id < 0 || int(id) >= len(a.elems) {
		return Element{}, false
	}
	return a.elems[id], true
}

// RingCount returns the number of microring resonators (PPSE + CPSE
// elements) — the headline cost metric of optical routers.
func (a *Architecture) RingCount() int {
	n := 0
	for _, e := range a.elems {
		if e.Kind == photonic.PPSE || e.Kind == photonic.CPSE {
			n++
		}
	}
	return n
}

// CrossingCount returns the number of passive waveguide crossings.
func (a *Architecture) CrossingCount() int {
	n := 0
	for _, e := range a.elems {
		if e.Kind == photonic.Crossing {
			n++
		}
	}
	return n
}

// Supports reports whether the router provides an optical path from port
// in to port out.
func (a *Architecture) Supports(in, out Port) bool {
	return in.Valid() && out.Valid() && a.paths[in][out] != nil
}

// SupportedTurns returns all (in, out) pairs with a configured path, in
// deterministic order.
func (a *Architecture) SupportedTurns() [][2]Port {
	var res [][2]Port
	for in := Port(0); in < NumPorts; in++ {
		for out := Port(0); out < NumPorts; out++ {
			if a.paths[in][out] != nil {
				res = append(res, [2]Port{in, out})
			}
		}
	}
	return res
}

// Path returns the raw traversal list for the turn, or false when the
// turn is unsupported. Callers must not modify the returned slice.
func (a *Architecture) Path(in, out Port) ([]Traversal, bool) {
	if !in.Valid() || !out.Valid() || a.paths[in][out] == nil {
		return nil, false
	}
	return a.paths[in][out], true
}

// Steps resolves the turn's traversals against the element netlist and
// the given parameters, producing the exit port and per-step loss.
func (a *Architecture) Steps(p photonic.Params, in, out Port) ([]Step, bool) {
	trav, ok := a.Path(in, out)
	if !ok {
		return nil, false
	}
	return a.AppendSteps(make([]Step, 0, len(trav)), p, in, out)
}

// AppendSteps is Steps appending the turn's steps to dst, so a caller
// resolving many turns can carve them all from one slab. It returns dst
// unchanged and false when the turn is unsupported.
func (a *Architecture) AppendSteps(dst []Step, p photonic.Params, in, out Port) ([]Step, bool) {
	trav, ok := a.Path(in, out)
	if !ok {
		return dst, false
	}
	for _, t := range trav {
		kind := a.elems[t.Elem].Kind
		dst = append(dst, Step{
			Elem:  t.Elem,
			Kind:  kind,
			In:    t.In,
			Out:   photonic.Traverse(kind, t.State, t.In),
			State: t.State,
			Loss:  p.TraversalLoss(kind, t.State),
		})
	}
	return dst, true
}

// PathLoss returns the total dB insertion loss of the turn under the
// given parameters, or false when the turn is unsupported.
func (a *Architecture) PathLoss(p photonic.Params, in, out Port) (float64, bool) {
	steps, ok := a.Steps(p, in, out)
	if !ok {
		return 0, false
	}
	var sum float64
	for _, s := range steps {
		sum += s.Loss
	}
	return sum, true
}

// WorstTurnLoss returns the largest-magnitude turn loss across all
// supported turns — the per-router worst-case insertion loss figure
// reported for router designs in the literature.
func (a *Architecture) WorstTurnLoss(p photonic.Params) float64 {
	worst := 0.0
	for in := Port(0); in < NumPorts; in++ {
		for out := Port(0); out < NumPorts; out++ {
			if loss, ok := a.PathLoss(p, in, out); ok && loss < worst {
				worst = loss
			}
		}
	}
	return worst
}

// Summary returns a human-readable one-line description, e.g.
// "crux: 12 rings, 4 crossings, 16 turns".
func (a *Architecture) Summary() string {
	return fmt.Sprintf("%s: %d rings, %d crossings, %d turns",
		a.name, a.RingCount(), a.CrossingCount(), len(a.SupportedTurns()))
}

// Builder assembles an Architecture. The zero value is unusable; create
// builders with NewBuilder. Builders are single-use: Build finalizes and
// validates the architecture.
type Builder struct {
	name   string
	elems  []Element
	labels map[string]ElemID
	paths  [NumPorts][NumPorts][]Traversal
	err    error
}

// NewBuilder returns a Builder for an architecture with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]ElemID)}
}

// AddElement adds a photonic element with a unique label and returns its
// ID. Errors are deferred to Build.
func (b *Builder) AddElement(kind photonic.Kind, label string) ElemID {
	if b.err != nil {
		return -1
	}
	if !kind.Valid() {
		b.err = fmt.Errorf("router: %s: invalid element kind %d", b.name, kind)
		return -1
	}
	if label == "" {
		b.err = fmt.Errorf("router: %s: empty element label", b.name)
		return -1
	}
	if _, dup := b.labels[label]; dup {
		b.err = fmt.Errorf("router: %s: duplicate element label %q", b.name, label)
		return -1
	}
	id := ElemID(len(b.elems))
	b.elems = append(b.elems, Element{Kind: kind, Label: label})
	b.labels[label] = id
	return id
}

// SetPath declares the optical path for the (in, out) turn. A nil or
// empty traversal list is valid (a zero-element pass-through) only for
// distinct ports; errors are deferred to Build.
func (b *Builder) SetPath(in, out Port, traversals []Traversal) {
	if b.err != nil {
		return
	}
	if !in.Valid() || !out.Valid() {
		b.err = fmt.Errorf("router: %s: invalid port in SetPath(%v,%v)", b.name, in, out)
		return
	}
	if in == out {
		b.err = fmt.Errorf("router: %s: U-turn path %v->%v not allowed", b.name, in, out)
		return
	}
	if b.paths[in][out] != nil {
		b.err = fmt.Errorf("router: %s: path %v->%v set twice", b.name, in, out)
		return
	}
	// make never returns nil, so even an empty path marks the turn as
	// supported in the paths table.
	cp := make([]Traversal, len(traversals))
	copy(cp, traversals)
	b.paths[in][out] = cp
}

// Build validates and returns the architecture. Validation checks element
// references, port validity, that no path visits the same element twice,
// and that any two configurations agree on the state of a shared element
// when entered from the same waveguide in the same direction (a physical
// consistency requirement: one path cannot require a ring both ON and OFF
// for the same signal).
func (b *Builder) Build() (*Architecture, error) {
	if b.err != nil {
		return nil, b.err
	}
	supported := 0
	for in := Port(0); in < NumPorts; in++ {
		for out := Port(0); out < NumPorts; out++ {
			trav := b.paths[in][out]
			if trav == nil {
				continue
			}
			supported++
			seen := make(map[ElemID]bool, len(trav))
			for i, t := range trav {
				if t.Elem < 0 || int(t.Elem) >= len(b.elems) {
					return nil, fmt.Errorf("router: %s: path %v->%v step %d: unknown element %d",
						b.name, in, out, i, t.Elem)
				}
				if !t.In.Valid() {
					return nil, fmt.Errorf("router: %s: path %v->%v step %d: invalid port %v",
						b.name, in, out, i, t.In)
				}
				if seen[t.Elem] {
					return nil, fmt.Errorf("router: %s: path %v->%v visits element %q twice",
						b.name, in, out, b.elems[t.Elem].Label)
				}
				seen[t.Elem] = true
				if b.elems[t.Elem].Kind == photonic.Crossing && t.State != photonic.Off {
					return nil, fmt.Errorf("router: %s: path %v->%v step %d: crossing %q cannot be On",
						b.name, in, out, i, b.elems[t.Elem].Label)
				}
			}
		}
	}
	if supported == 0 {
		return nil, fmt.Errorf("router: %s: no paths defined", b.name)
	}
	a := &Architecture{name: b.name, elems: b.elems, paths: b.paths}
	b.err = fmt.Errorf("router: builder for %s already consumed", b.name)
	return a, nil
}

// RequiredTurns returns the turn set a routing scheme needs. XY
// dimension-order routing on a mesh or torus needs injection and ejection
// on every direction, straight-through on both axes, and the four X-to-Y
// turns; Y-to-X turns never occur.
func RequiredTurnsXY() [][2]Port {
	return [][2]Port{
		{Local, North}, {Local, East}, {Local, South}, {Local, West},
		{North, Local}, {East, Local}, {South, Local}, {West, Local},
		{West, East}, {East, West}, {North, South}, {South, North},
		{West, North}, {West, South}, {East, North}, {East, South},
	}
}

// RequiredTurnsAll returns every turn of a fully connected 5-port router
// (20 pairs), as needed by arbitrary routing algorithms.
func RequiredTurnsAll() [][2]Port {
	var res [][2]Port
	for in := Port(0); in < NumPorts; in++ {
		for out := Port(0); out < NumPorts; out++ {
			if in != out {
				res = append(res, [2]Port{in, out})
			}
		}
	}
	return res
}

// CheckTurns verifies the architecture supports every required turn.
func CheckTurns(a *Architecture, required [][2]Port) error {
	var missing []string
	for _, t := range required {
		if !a.Supports(t[0], t[1]) {
			missing = append(missing, fmt.Sprintf("%v->%v", t[0], t[1]))
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("router: %s lacks turns: %v", a.Name(), missing)
	}
	return nil
}
