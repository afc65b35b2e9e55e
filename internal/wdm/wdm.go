// Package wdm extends PhoNoCMap to wavelength-division multiplexed
// photonic NoCs. The paper's introduction notes that multiwavelength
// signalling exacerbates the power budget because "the above
// considerations apply to each individual wavelength channel"; this
// package makes the wavelength dimension explicit:
//
//   - it derives the contention graph of a mapped application — two
//     communications conflict when their single-wavelength paths would
//     share a waveguide segment (same element, same entry or exit port);
//   - it colors that graph greedily to assign each communication a
//     wavelength channel, yielding the minimum-observed channel count for
//     contention-free operation — a mapping-dependent metric;
//   - with a channel assignment, the crosstalk analysis considers only
//     same-wavelength interactions (analysis.EvaluateChanneled), usually
//     raising the worst-case SNR at the cost of laser channels.
package wdm

import (
	"fmt"
	"sort"

	"phonocmap/internal/analysis"
	"phonocmap/internal/cg"
	"phonocmap/internal/core"
	"phonocmap/internal/network"
)

// Assignment is the result of wavelength allocation for one mapped
// application.
type Assignment struct {
	// Channel[i] is the wavelength index of CG edge i (0-based).
	Channel []int
	// Channels is the number of distinct wavelengths used.
	Channels int
	// Conflicts is the number of conflicting communication pairs in the
	// contention graph.
	Conflicts int
}

// conflictGraph computes the pairwise contention of the mapped
// communications: pair (i, j) conflicts when some element is traversed by
// both with the same input port (shared upstream waveguide) or the same
// output port (downstream merge).
func conflictGraph(nw *network.Network, comms []analysis.Communication) ([][]bool, int, error) {
	n := len(comms)
	paths := make([]*network.Path, n)
	for i, c := range comms {
		if c.Src == c.Dst {
			return nil, 0, fmt.Errorf("wdm: communication %d is a self-loop at tile %d", i, c.Src)
		}
		p := nw.Path(c.Src, c.Dst)
		if p == nil {
			return nil, 0, fmt.Errorf("wdm: communication %d out of range (%d->%d)", i, c.Src, c.Dst)
		}
		paths[i] = p
	}
	type occ struct {
		comm int
		step int
	}
	byElem := make(map[network.GlobalElem][]occ)
	for ci, p := range paths {
		for si := range p.Steps {
			g := p.Steps[si].Node
			byElem[g] = append(byElem[g], occ{comm: ci, step: si})
		}
	}
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	conflicts := 0
	for _, occs := range byElem {
		for i := 0; i < len(occs); i++ {
			for j := i + 1; j < len(occs); j++ {
				a, b := occs[i], occs[j]
				if a.comm == b.comm {
					continue
				}
				sa := &paths[a.comm].Steps[a.step]
				sb := &paths[b.comm].Steps[b.step]
				if sa.In == sb.In || sa.Out == sb.Out {
					if !adj[a.comm][b.comm] {
						conflicts++
					}
					adj[a.comm][b.comm] = true
					adj[b.comm][a.comm] = true
				}
			}
		}
	}
	return adj, conflicts, nil
}

// checkMapping rejects a mapping that does not place every task of app
// on its own tile of nw (Eqs. 5–6).
func checkMapping(nw *network.Network, app *cg.Graph, m core.Mapping) error {
	if err := m.Validate(nw.NumTiles()); err != nil {
		return err
	}
	if len(m) != app.NumTasks() {
		return fmt.Errorf("wdm: mapping covers %d tasks, app has %d", len(m), app.NumTasks())
	}
	return nil
}

// Allocate assigns wavelength channels to the mapped application's
// communications with Welsh-Powell greedy coloring of the contention
// graph (highest-degree first): conflicting communications never share a
// wavelength. Greedy coloring is not optimal in general, but it is
// deterministic and within the usual small factor of the chromatic number
// on these sparse graphs.
func Allocate(nw *network.Network, app *cg.Graph, m core.Mapping) (Assignment, error) {
	if err := checkMapping(nw, app, m); err != nil {
		return Assignment{}, err
	}
	edges := app.Edges()
	comms := make([]analysis.Communication, len(edges))
	for i, e := range edges {
		comms[i] = analysis.Communication{Src: m[e.Src], Dst: m[e.Dst]}
	}
	adj, conflicts, err := conflictGraph(nw, comms)
	if err != nil {
		return Assignment{}, err
	}
	n := len(comms)
	degree := make([]int, n)
	for i := range adj {
		for j := range adj[i] {
			if adj[i][j] {
				degree[i]++
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return degree[order[a]] > degree[order[b]] })

	channel := make([]int, n)
	for i := range channel {
		channel[i] = -1
	}
	maxChan := 0
	for _, v := range order {
		used := make(map[int]bool)
		for u := 0; u < n; u++ {
			if adj[v][u] && channel[u] >= 0 {
				used[channel[u]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		channel[v] = c
		if c+1 > maxChan {
			maxChan = c + 1
		}
	}
	return Assignment{Channel: channel, Channels: maxChan, Conflicts: conflicts}, nil
}

// Evaluate computes the worst-case metrics of a mapped application under
// a wavelength assignment: only same-channel communications interact.
func Evaluate(nw *network.Network, app *cg.Graph, m core.Mapping, a Assignment) (analysis.Result, error) {
	if err := checkMapping(nw, app, m); err != nil {
		return analysis.Result{}, err
	}
	if len(a.Channel) != app.NumEdges() {
		return analysis.Result{}, fmt.Errorf("wdm: assignment covers %d edges, app has %d", len(a.Channel), app.NumEdges())
	}
	edges := app.Edges()
	comms := make([]analysis.Communication, len(edges))
	for i, e := range edges {
		comms[i] = analysis.Communication{Src: m[e.Src], Dst: m[e.Dst]}
	}
	ev := analysis.NewEvaluator(nw)
	return ev.EvaluateChanneled(comms, a.Channel)
}
