package main

import (
	"fmt"
	"math/rand"
	"time"

	"phonocmap"
	"phonocmap/internal/config"
)

// The dense case: random CGs with 56 tasks and 220 edges on an 8x8
// Crux/XY mesh under the SNR objective.
const (
	denseTasks = 56
	denseEdges = 220
	denseSide  = 8
	// denseCGs is how many seeded CGs a run rotates through, one per
	// pass, all on the one network. With a single CG the swap family's
	// rate moved with the seed (quartile spread 0.09 over ten seeds);
	// the median over passes on several CGs moves less.
	denseCGs = 4
)

// denseRuns are the searcher runs of one pass, one at a time. Each
// family's budget is sized so the swap (sa, tabu, rpbla), batch (ga,
// memetic) and full-evaluation (rs) families take similar shares of the
// run.
var denseRuns = []struct {
	algo   string
	budget int
}{
	{"sa", 400}, {"tabu", 400}, {"rpbla", 400},
	{"ga", 120}, {"memetic", 120},
	{"rs", 240},
}

type dense struct {
	seed  int64
	spec  phonocmap.Scenario   // the first CG's normalized scenario
	probs []*phonocmap.Problem // one per CG, all on the first one's network
	keys  []string             // each CG's content address

	digests []string                // of each CG's first pass
	first   [][]phonocmap.RunResult // each CG's first pass
	// traced-phase observations for the layer report
	calls       []call // the searcher runs on the first CG
	tracedEvals int
}

// denseApps generates the seeded random CGs as custom application specs.
func denseApps(seed int64) ([]phonocmap.AppSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	apps := make([]phonocmap.AppSpec, denseCGs)
	for i := range apps {
		g, err := phonocmap.RandomApp(rng, denseTasks, denseEdges)
		if err != nil {
			return nil, err
		}
		apps[i] = config.AppSpecOf(g)
		apps[i].Name = fmt.Sprintf("dense-%d-%d", seed, i)
	}
	return apps, nil
}

// setupDense generates the CGs from the seed and compiles the first; the
// others are bound to its network the way scenario.Compile binds one
// (Normalize, then NewProblem), without building the network again.
func setupDense(o options) (instance, error) {
	apps, err := denseApps(o.seed)
	if err != nil {
		return nil, err
	}
	arch := phonocmap.ArchSpec{Topology: "mesh", Width: denseSide, Height: denseSide, Router: "crux", Routing: "xy"}
	comp, err := phonocmap.CompileScenario(phonocmap.Scenario{App: apps[0], Arch: arch, Objective: "snr"})
	if err != nil {
		return nil, err
	}
	phonocmap.SetEvalWorkers(1)
	d := &dense{seed: o.seed, spec: comp.Spec, probs: []*phonocmap.Problem{comp.Problem}, keys: []string{comp.Spec.Key()}}
	for _, app := range apps[1:] {
		sc := phonocmap.Scenario{App: app, Arch: arch, Objective: "snr"}
		g, err := sc.Normalize()
		if err != nil {
			return nil, err
		}
		prob, err := phonocmap.NewProblem(g, comp.Problem.Network(), comp.Problem.Objective())
		if err != nil {
			return nil, err
		}
		d.probs = append(d.probs, prob)
		d.keys = append(d.keys, sc.Key())
	}
	d.digests = make([]string, denseCGs)
	d.first = make([][]phonocmap.RunResult, denseCGs)
	return d, nil
}

func (d *dense) phase(seconds float64, tr *tracer, m, r *report) (work, error) {
	limit := time.Duration(seconds * float64(time.Second))
	var calls []call
	// Each pass is one sample of every rate; the metrics are medians over
	// passes, so a burst of host contention moves one sample, not the run.
	var passRates, passJobs []rate
	famRates := map[string][]rate{}
	var rss peaks
	root := tr.begin("dense.timed", -1, 0)
	g0 := readGoStats()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < limit; n++ {
		// Every phase starts its rotation at the first CG, so a traced
		// phase always has runs on the CG its kernels are replayed on.
		cg := n % denseCGs
		dg := newDigest()
		var runs []phonocmap.RunResult
		var pass rate
		rss.start()
		for _, run := range denseRuns {
			sp := tr.begin("search.Optimize."+run.algo, root, 0)
			// One search at a time, on one goroutine (set-up pins batch
			// evaluation to one worker), so it is timed by CPU time.
			c0 := readClock()
			res, err := phonocmap.Optimize(d.probs[cg], run.algo, run.budget, d.seed)
			rt := c0.sinceOnCPU()
			tr.end(sp)
			if err != nil {
				r.ops(1, 1)
				r.fail("%s on CG %d: %v", run.algo, cg, err)
				continue
			}
			r.ops(1, 0)
			r.check(res.Evals == run.budget, "%s on CG %d spent %d evaluations of its budget %d", run.algo, cg, res.Evals, run.budget)
			rt.work = res.Evals
			pass = pass.plus(rt)
			runs = append(runs, res)
			dg.add(d.keys[cg]+"/"+run.algo, res.Mapping, res.Score, res.Evals)
			if tr != nil && cg == 0 {
				d.calls = append(d.calls, call{run.algo, rt})
			}
			calls = append(calls, call{run.algo, rt})
		}
		rss.stop()
		passRates = append(passRates, pass)
		pass.work = len(runs)
		passJobs = append(passJobs, pass)
		for f, fr := range sumBy(calls[len(calls)-len(runs):], familyOf) {
			famRates[f] = append(famRates[f], fr)
		}
		if sum := dg.sum(); d.digests[cg] == "" {
			d.digests[cg], d.first[cg] = sum, runs
		} else {
			r.check(sum == d.digests[cg], "pass digest %s on CG %d differs from its first pass's %s", sum, cg, d.digests[cg])
		}
	}
	wall := time.Since(start)
	done := work{gc: readGoStats().since(g0)}
	tr.end(root)
	for _, c := range calls {
		done.ops += c.work
	}

	m.add("evals_per_s", medianRate(passRates), "evals/s",
		fmt.Sprintf("median over %d passes of %d runs on %d CGs, %.2f s; per CPU-second", len(passRates), len(denseRuns), min(len(passRates), denseCGs), wall.Seconds()))
	for _, f := range familyNames {
		m.add(f+"_evals_per_s", medianRate(famRates[f]), "evals/s",
			fmt.Sprintf("median over %d passes of the family's evals / its own run time", len(famRates[f])))
	}
	m.add("jobs_per_s", medianRate(passJobs), "jobs/s",
		fmt.Sprintf("Optimize calls per second, median over %d passes", len(passJobs)))
	if err := rss.report(m, "passes"); err != nil {
		return done, err
	}
	r.logf("digest dense %s (%d passes)", d.digest(), len(passRates))
	r.logf("dense evals/s per pass: %s", fmtRates(passRates))
	for _, f := range familyNames {
		r.logf("dense %s evals/s per pass: %s", f, fmtRates(famRates[f]))
	}
	if tr != nil {
		d.tracedEvals = done.ops
	}
	return done, nil
}

// digest combines the CGs' first-pass digests.
func (d *dense) digest() string {
	dg := newDigest()
	for i, sum := range d.digests {
		fmt.Fprintf(dg.h, "%d:%s\n", i, sum)
	}
	return dg.sum()
}

// verify re-scores each CG's first-pass winning mappings.
func (d *dense) verify(r *report) {
	for cg, runs := range d.first {
		for _, res := range runs {
			if err := phonocmap.Verify(d.probs[cg], res); err != nil {
				r.fail("%s result on CG %d does not re-score: %v", res.Algorithm, cg, err)
			}
		}
	}
}

func (d *dense) close() error { return nil }
