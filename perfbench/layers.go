package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"phonocmap"
	"phonocmap/internal/analysis"
	"phonocmap/internal/core"
	"phonocmap/internal/sweep"
	"phonocmap/internal/topo"
)

// The traced run's replays call each layer's functions directly, after
// the timed phases, on the workload's own inputs. Every replay times a
// batch of calls and reports the per-call time; where a number can only
// be attributed, not timed, its note says "derived".

// replayOps is how many calls one kernel replay times.
const replayOps = 200

// perCall times n calls of f and returns the mean per call.
func perCall(n int, f func(i int) error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// medianOf runs f reps times and returns the median duration.
func medianOf(reps int, f func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ds[i] = float64(d)
	}
	return time.Duration(median(ds)), nil
}

// kernels are one problem's per-call evaluation costs.
type kernels struct {
	coreFull, coreSwap, coreReseat, coreBatch time.Duration
	anaFull, anaDelta                         time.Duration
}

// family returns the kernel that does a searcher family's evaluations.
func (k kernels) family(f string) time.Duration {
	switch f {
	case "swap":
		return k.coreSwap
	case "batch":
		return k.coreBatch
	default:
		return k.coreFull
	}
}

// swapMove is one tile swap with at least one occupied tile.
type swapMove struct{ a, b topo.TileID }

// randomSwaps draws n swaps of which at least one tile is occupied.
func randomSwaps(rng *rand.Rand, m phonocmap.Mapping, tiles, n int) []swapMove {
	occupied := make([]bool, tiles)
	for _, t := range m {
		occupied[t] = true
	}
	out := make([]swapMove, 0, n)
	for len(out) < n {
		a, b := topo.TileID(rng.Intn(tiles)), topo.TileID(rng.Intn(tiles))
		if a != b && (occupied[a] || occupied[b]) {
			out = append(out, swapMove{a, b})
		}
	}
	return out
}

// swapped returns m with the tasks on tiles a and b exchanged.
func swapped(m phonocmap.Mapping, mv swapMove) phonocmap.Mapping {
	out := m.Clone()
	for task, tile := range out {
		switch tile {
		case mv.a:
			out[task] = mv.b
		case mv.b:
			out[task] = mv.a
		}
	}
	return out
}

// comms returns the communications a mapping induces.
func comms(prob *phonocmap.Problem, m phonocmap.Mapping) []analysis.Communication {
	edges := prob.App().Edges()
	out := make([]analysis.Communication, len(edges))
	for i, e := range edges {
		out[i] = analysis.Communication{Src: m[e.Src], Dst: m[e.Dst]}
	}
	return out
}

// delta returns the communications a swap changes and their new values.
func delta(prob *phonocmap.Problem, m phonocmap.Mapping, mv swapMove) ([]int, []analysis.Communication) {
	next := swapped(m, mv)
	var changed []int
	var fresh []analysis.Communication
	for i, e := range prob.App().Edges() {
		if next[e.Src] != m[e.Src] || next[e.Dst] != m[e.Dst] {
			changed = append(changed, i)
			fresh = append(fresh, analysis.Communication{Src: next[e.Src], Dst: next[e.Dst]})
		}
	}
	return changed, fresh
}

// measureKernels replays each evaluation path on one problem, seated on
// one of the workload's winning mappings.
func measureKernels(prob *phonocmap.Problem, m phonocmap.Mapping, seed int64) (kernels, error) {
	var k kernels
	rng := rand.New(rand.NewSource(seed))
	tiles := prob.NumTiles()
	moves := randomSwaps(rng, m, tiles, replayOps)
	neighbours := make([]phonocmap.Mapping, len(moves))
	for i, mv := range moves {
		neighbours[i] = swapped(m, mv)
	}
	var err error

	// core: full evaluation, swap + revert, reseat, batch at 1 worker.
	if k.coreFull, err = perCall(len(neighbours), func(i int) error {
		_, err := prob.Evaluate(neighbours[i])
		return err
	}); err != nil {
		return k, err
	}
	sess, err := prob.NewSwapSession(m)
	if err != nil {
		return k, err
	}
	if k.coreSwap, err = perCall(len(moves), func(i int) error {
		if _, err := sess.EvaluateSwap(moves[i].a, moves[i].b); err != nil {
			return err
		}
		return sess.Revert()
	}); err != nil {
		return k, err
	}
	if k.coreReseat, err = perCall(len(neighbours), func(i int) error {
		_, err := sess.Reseat(neighbours[i])
		return err
	}); err != nil {
		return k, err
	}
	sess.Release()
	ctx, err := core.NewContext(prob, rand.New(rand.NewSource(seed)), 1<<30)
	if err != nil {
		return k, err
	}
	ctx.SetEvalWorkers(1)
	start := time.Now()
	if _, _, err := ctx.EvaluateBatch(neighbours); err != nil {
		return k, err
	}
	k.coreBatch = time.Since(start) / time.Duration(len(neighbours))
	ctx.Close()

	// analysis: the evaluator and the incremental engine underneath.
	base := comms(prob, m)
	ev := analysis.NewEvaluator(prob.Network())
	neighbourComms := make([][]analysis.Communication, len(neighbours))
	for i, n := range neighbours {
		neighbourComms[i] = comms(prob, n)
	}
	if k.anaFull, err = perCall(len(neighbourComms), func(i int) error {
		_, err := ev.Evaluate(neighbourComms[i])
		return err
	}); err != nil {
		return k, err
	}
	inc := analysis.NewIncremental(prob.Network())
	defer inc.Release()
	if _, err := inc.Init(base); err != nil {
		return k, err
	}
	type change struct {
		idx   []int
		comms []analysis.Communication
	}
	changes := make([]change, len(moves))
	for i, mv := range moves {
		changes[i].idx, changes[i].comms = delta(prob, m, mv)
	}
	if k.anaDelta, err = perCall(len(changes), func(i int) error {
		if _, err := inc.ApplyDelta(changes[i].idx, changes[i].comms); err != nil {
			return err
		}
		_, err := inc.Undo()
		return err
	}); err != nil {
		return k, err
	}
	return k, nil
}

// addKernels reports the mean of per-problem kernel costs.
func addKernels(r *report, ks []kernels, note string) {
	pick := func(f func(kernels) time.Duration) float64 {
		v := make([]float64, len(ks))
		for i, k := range ks {
			v[i] = us(f(k))
		}
		return mean(v)
	}
	r.add("core.full_us", pick(func(k kernels) time.Duration { return k.coreFull }), "us", note+"; Problem.Evaluate")
	r.add("core.swap_us", pick(func(k kernels) time.Duration { return k.coreSwap }), "us", note+"; SwapSession.EvaluateSwap + Revert")
	r.add("core.reseat_us", pick(func(k kernels) time.Duration { return k.coreReseat }), "us", note+"; SwapSession.Reseat between neighbours")
	r.add("core.batch_us", pick(func(k kernels) time.Duration { return k.coreBatch }), "us", note+"; Context.EvaluateBatch at 1 worker, per candidate")
	r.add("analysis.full_us", pick(func(k kernels) time.Duration { return k.anaFull }), "us", note+"; Evaluator.Evaluate")
	r.add("analysis.delta_us", pick(func(k kernels) time.Duration { return k.anaDelta }), "us", note+"; Incremental.ApplyDelta + Undo")
}

// problemRun is one timed searcher run with the kernels of its problem.
type problemRun struct {
	call
	k kernels
}

// addSearch reports per-searcher throughput and each family's
// bookkeeping share: the part of its run time the evaluation kernel
// does not account for.
func addSearch(r *report, runs []problemRun, note string) {
	calls := make([]call, len(runs))
	for i, pr := range runs {
		calls[i] = pr.call
	}
	for algo, rt := range sumBy(calls, algoOf) {
		r.add("search."+algo+".evals_per_s", rt.perSecond(), "evals/s",
			fmt.Sprintf("%s; %d evals in %.3f s wall, %.3f s stolen", note, rt.work, rt.wall.Seconds(), rt.steal.Seconds()))
	}
	kernel := map[string]float64{}
	run := map[string]float64{}
	for _, pr := range runs {
		f := familyOf(pr.call)
		kernel[f] += float64(pr.work) * float64(pr.k.family(f))
		run[f] += float64(pr.effective())
	}
	for _, f := range familyNames {
		if run[f] == 0 {
			continue
		}
		r.add("search."+f+".bookkeeping_share", 1-kernel[f]/run[f], "fraction",
			"derived: 1 - evals x kernel time / run time")
	}
}

// networkUse counts the network builds a workload's inputs imply, per
// arch. The count is derived, not measured: the benchmark cannot see the
// builds inside the program.
type networkUse map[string]*archUse // by canonical JSON

type archUse struct {
	arch   phonocmap.ArchSpec
	builds int
}

// add counts n builds of arch.
func (u networkUse) add(arch phonocmap.ArchSpec, n int) {
	if n <= 0 {
		return
	}
	b, _ := json.Marshal(arch)
	if u[string(b)] == nil {
		u[string(b)] = &archUse{arch: arch}
	}
	u[string(b)].builds += n
}

// report times each arch's build once and adds the build time per build,
// weighted by use, and the share of `wall` the implied builds would take.
func (u networkUse) report(r *report, wall time.Duration, per string) error {
	total := 0
	var weighted float64
	for _, a := range u {
		d, err := buildTime(a.arch)
		if err != nil {
			return err
		}
		total += a.builds
		weighted += float64(a.builds) * ms(d)
	}
	if total == 0 {
		return fmt.Errorf("network: no build to report")
	}
	perBuild := weighted / float64(total)
	r.add("network.build_ms", perBuild, "ms", "config.ArchSpec.Build, per build, weighted by use")
	r.add("network.share", float64(total)*perBuild/ms(wall), "fraction",
		fmt.Sprintf("derived: %d builds %s x build time / wall time", total, per))
	return nil
}

// buildTime returns the median of three builds of arch.
func buildTime(arch phonocmap.ArchSpec) (time.Duration, error) {
	return medianOf(3, func() (time.Duration, error) {
		start := time.Now()
		_, err := arch.Build()
		return time.Since(start), err
	})
}

// addScenario replays Spec.Normalize, Spec.Key and scenario.Compile (minus
// its network build) on the workload's own specs.
func addScenario(r *report, specs []phonocmap.Scenario) error {
	var norm, key, compile []float64
	for _, spec := range specs {
		s := spec
		start := time.Now()
		if _, err := s.Normalize(); err != nil {
			return err
		}
		norm = append(norm, us(time.Since(start)))
		start = time.Now()
		_ = s.Key()
		key = append(key, us(time.Since(start)))
	}
	// Compile builds a network each time; time a handful of distinct
	// specs, each alternating with a bare build of its arch so that both
	// see the same heap and host, for at least 100 ms so that the
	// difference of the medians is not lost in noise.
	seen := map[string]bool{}
	for _, spec := range specs {
		s := spec
		if _, err := s.Normalize(); err != nil {
			return err
		}
		id, _ := json.Marshal([]any{s.App, s.Arch, s.Objective})
		if seen[string(id)] || len(seen) >= 16 {
			continue
		}
		seen[string(id)] = true
		var builds, compiles []float64
		for start := time.Now(); len(builds) < 5 || time.Since(start) < 100*time.Millisecond; {
			t0 := time.Now()
			if _, err := s.Arch.Build(); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := phonocmap.CompileScenario(spec); err != nil {
				return err
			}
			builds = append(builds, ms(t1.Sub(t0)))
			compiles = append(compiles, ms(time.Since(t1)))
		}
		compile = append(compile, median(compiles)-median(builds))
	}
	r.add("scenario.normalize_us", median(norm), "us", fmt.Sprintf("Spec.Normalize, median of %d specs", len(norm)))
	r.add("scenario.key_us", median(key), "us", fmt.Sprintf("Spec.Key, median of %d specs", len(key)))
	r.add("scenario.compile_ms", median(compile), "ms", fmt.Sprintf("scenario.Compile minus its network build, median of %d specs", len(compile)))
	return nil
}

// layers replays the table2 grid's layers: network builds per cell,
// scenario compile, the kernels and searchers on every cell's problem,
// grid expansion and the aggregators.
func (t *table2) layers(tr *tracer, r *report) error {
	use := networkUse{}
	for _, c := range t.cells {
		use.add(c.Arch, 1)
	}
	roundWall := time.Duration(t.tracedRoundMs * float64(time.Millisecond))
	if err := use.report(r, table2Workers*roundWall, "per round (one per cell), against both workers' time"); err != nil {
		return err
	}
	specs := make([]phonocmap.Scenario, len(t.cells))
	for i, c := range t.cells {
		specs[i] = c.Scenario()
	}
	if err := addScenario(r, specs); err != nil {
		return err
	}

	// One problem per (app, arch, objective); its kernels are measured on
	// the winning mapping of that problem's rpbla cell, and every cell is
	// re-run sequentially on it for the per-searcher numbers.
	type key struct{ app, topo, obj string }
	probs := map[key]*phonocmap.Problem{}
	ks := map[key]kernels{}
	var all []kernels
	for _, c := range t.first {
		k := key{c.Cell.AppName(), c.Cell.Arch.Topology, c.Cell.Objective}
		if _, ok := probs[k]; ok || c.Cell.Algorithm != "rpbla" {
			continue
		}
		comp, err := phonocmap.CompileScenario(c.Cell.Scenario())
		if err != nil {
			return err
		}
		probs[k] = comp.Problem
		kk, err := measureKernels(comp.Problem, c.Mapping, c.Cell.Seed)
		if err != nil {
			return err
		}
		ks[k] = kk
		all = append(all, kk)
	}
	addKernels(r, all, fmt.Sprintf("mean over %d problems", len(all)))
	r.add("core.evals", float64(t.tracedEvals), "count", "traced timed phase")

	var runs []problemRun
	sp := tr.begin("replay.search", -1, 0)
	for _, c := range t.first {
		k := key{c.Cell.AppName(), c.Cell.Arch.Topology, c.Cell.Objective}
		op := tr.begin("search.Optimize."+c.Cell.Algorithm, sp, 0)
		c0 := readClock()
		res, err := phonocmap.Optimize(probs[k], c.Cell.Algorithm, c.Cell.Budget, c.Cell.Seed)
		rt := c0.sinceOnCPU()
		tr.end(op)
		if err != nil {
			return err
		}
		rt.work = res.Evals
		runs = append(runs, problemRun{call{c.Cell.Algorithm, rt}, ks[k]})
	}
	tr.end(sp)
	addSearch(r, runs, "sequential replay of the grid's cells")

	expand, err := medianOf(5, func() (time.Duration, error) {
		start := time.Now()
		_, err := phonocmap.ExpandSweep(t.spec)
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	r.add("sweep.expand_ms", ms(expand), "ms", "ExpandSweep, median of 5")
	results := make([]sweep.Result, len(t.first))
	for i, c := range t.first {
		results[i] = sweep.Result{Index: c.Index, Cell: c.Cell, Report: c.Report,
			Run: core.RunResult{Algorithm: c.Cell.Algorithm, Mapping: c.Mapping, Score: c.Score, Evals: c.Evals}}
	}
	agg, _ := medianOf(5, func() (time.Duration, error) {
		start := time.Now()
		sweep.Table(results)
		sweep.BudgetCurves(results)
		sweep.AnnotatedParetoFronts(results)
		sweep.AnalysisSummary(results)
		return time.Since(start), nil
	})
	r.add("sweep.aggregate_ms", ms(agg), "ms", "Table + BudgetCurves + AnnotatedParetoFronts + AnalysisSummary, median of 5")
	if len(t.tails) > 0 {
		r.add("sweep.tail_ms", median(t.tails), "ms", fmt.Sprintf("last completion - first idle worker, median of %d sweeps", len(t.tails)))
	} else {
		r.logf("not measured: sweep.tail_ms: no traced sweep completed")
	}
	return nil
}

// layers replays the dense case's kernels on the first CG's first-pass
// rpbla mapping and reports the traced searcher runs on that CG.
func (d *dense) layers(tr *tracer, r *report) error {
	build, err := buildTime(d.spec.Arch)
	if err != nil {
		return err
	}
	r.add("network.build_ms", ms(build), "ms", "config.ArchSpec.Build of the 8x8 mesh, once, in set-up")
	if err := addScenario(r, []phonocmap.Scenario{d.spec}); err != nil {
		return err
	}
	var best phonocmap.Mapping
	for _, res := range d.first[0] {
		if res.Algorithm == "rpbla" {
			best = res.Mapping
		}
	}
	if best == nil {
		return fmt.Errorf("no rpbla result to seat the kernels on")
	}
	k, err := measureKernels(d.probs[0], best, d.seed)
	if err != nil {
		return err
	}
	addKernels(r, []kernels{k}, "the first CG's 8x8-dense problem")
	r.add("core.evals", float64(d.tracedEvals), "count", "traced timed phase, every CG")
	if len(d.calls) == 0 {
		return fmt.Errorf("the traced phase ran no pass on the first CG")
	}
	runs := make([]problemRun, len(d.calls))
	for i, c := range d.calls {
		runs[i] = problemRun{c, k}
	}
	addSearch(r, runs, "traced timed phase, the first CG")
	return nil
}
