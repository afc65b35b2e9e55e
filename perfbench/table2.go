package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"phonocmap"
)

// The table2 grid: the paper's Table II at one small fixed budget.
const (
	table2Budget  = 500
	table2Workers = 2
)

var (
	table2Objectives = []string{"snr", "loss"}
	// table2Algorithms are the paper's three searchers, one per
	// evaluation family: rs full evaluations, ga batch reseats, rpbla
	// incremental swaps.
	table2Algorithms = []string{"rs", "ga", "rpbla"}
)

type table2 struct {
	runner phonocmap.Runner
	spec   phonocmap.SweepSpec   // the whole grid
	sweeps []algoSweep           // the grid split by algorithm, run in turn
	cells  []phonocmap.SweepCell // every sweep's cells, in sweep order

	digest string                            // of the first round
	first  []phonocmap.RunnerSweepCellResult // the first round's cells
	// traced-phase observations for the layer report
	tracedEvals   int
	tracedRoundMs float64 // median round wall time
	tails         []float64
}

// algoSweep is the part of the grid one algorithm runs. A round runs the
// three algorithms' sweeps one after the other, so each family's rate is
// taken over its own sweep's time.
type algoSweep struct {
	algo string
	spec phonocmap.SweepSpec
	keys []string // content address of each cell's scenario
}

// setupTable2 builds the grid from the bundled applications, expands it
// per algorithm and computes each cell's content address.
func setupTable2(o options) (instance, error) {
	var apps []phonocmap.AppSpec
	for _, name := range phonocmap.Apps() {
		apps = append(apps, phonocmap.AppSpec{Builtin: name})
	}
	t := &table2{runner: phonocmap.NewLocalRunner(), spec: phonocmap.SweepSpec{
		Apps:       apps,
		Archs:      []phonocmap.ArchSpec{{Topology: "mesh"}, {Topology: "torus"}},
		Objectives: table2Objectives,
		Algorithms: table2Algorithms,
		Budgets:    []int{table2Budget},
		Seeds:      []int64{o.seed},
	}}
	for _, algo := range table2Algorithms {
		sw := algoSweep{algo: algo, spec: t.spec}
		sw.spec.Algorithms = []string{algo}
		cells, err := phonocmap.ExpandSweep(sw.spec)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			sc := c.Scenario()
			if _, err := sc.Normalize(); err != nil {
				return nil, err
			}
			sw.keys = append(sw.keys, sc.Key())
		}
		t.sweeps = append(t.sweeps, sw)
		t.cells = append(t.cells, cells...)
	}
	return t, nil
}

func (t *table2) phase(seconds float64, tr *tracer, m, r *report) (work, error) {
	ctx := context.Background()
	limit := time.Duration(seconds * float64(time.Second))
	cores := busyCores(table2Workers)
	var done work
	var walls []float64
	var rss peaks
	// One sample of every rate per round; the metrics are medians over
	// rounds, so a burst of host contention moves one sample, not the run.
	var rounds, jobs []rate
	famRates := map[string][]rate{}
	root := tr.begin("table2.timed", -1, 0)
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < limit {
		d := newDigest()
		var round rate
		var cells []phonocmap.RunnerSweepCellResult
		rss.start()
		for i := range t.sweeps {
			sw := &t.sweeps[i]
			var mu sync.Mutex
			var completions []time.Duration
			opts := phonocmap.SweepRunOptions{Workers: table2Workers}
			g0, c0 := readGoStats(), readClock()
			if tr != nil {
				opts.OnCellDone = func(phonocmap.RunnerSweepCellResult) {
					mu.Lock()
					completions = append(completions, time.Since(c0.wall))
					mu.Unlock()
				}
			}
			sp := tr.begin("runner.RunSweep."+sw.algo, root, 0)
			res, err := t.runner.RunSweep(ctx, sw.spec, opts)
			rt := c0.since(cores)
			tr.end(sp)
			done.gc = done.gc.plus(readGoStats().since(g0))
			if err != nil {
				return done, fmt.Errorf("%s sweep: %w", sw.algo, err)
			}
			rt.work = sw.check(res, d, r)
			famRates[families[sw.algo]] = append(famRates[families[sw.algo]], rt)
			round = round.plus(rt)
			cells = append(cells, res.Cells...)
			if tail, ok := sweepTail(completions, table2Workers); ok {
				t.tails = append(t.tails, ms(tail))
			}
		}
		rss.stop()
		done.ops += round.work
		rounds = append(rounds, round)
		roundJobs := round
		roundJobs.work = len(cells)
		jobs = append(jobs, roundJobs)
		walls = append(walls, ms(round.wall))
		t.checkRound(d, cells, r)
		// Collect the round's garbage and return it to the OS outside the
		// timed chunk, so every round starts from the same heap and RSS and
		// peak_rss_mb reflects one round rather than where GC cycles and
		// the scavenger happened to fall across rounds.
		debug.FreeOSMemory()
	}
	wall := time.Since(start)
	tr.end(root)
	m.add("evals_per_s", medianRate(rounds), "evals/s",
		fmt.Sprintf("median over %d rounds of %d cells, %.2f s; wall time less stolen time over %d cores", len(rounds), len(t.cells), wall.Seconds(), cores))
	for _, f := range familyNames {
		m.add(f+"_evals_per_s", medianRate(famRates[f]), "evals/s",
			fmt.Sprintf("median over %d rounds of the family's sweep: its evals / its own time", len(famRates[f])))
	}
	m.add("jobs_per_s", medianRate(jobs), "jobs/s",
		fmt.Sprintf("cells per second, median over %d rounds", len(jobs)))
	if err := rss.report(m, "rounds"); err != nil {
		return done, err
	}
	r.logf("digest table2 %s (%d rounds)", t.digest, len(rounds))
	r.logf("table2 evals/s per round: %s", fmtRates(rounds))
	for _, f := range familyNames {
		r.logf("table2 %s evals/s per round: %s", f, fmtRates(famRates[f]))
	}
	if tr != nil {
		t.tracedEvals, t.tracedRoundMs = done.ops, median(walls)
	}
	return done, nil
}

// checkRound requires every round to give the first round's digest, and
// keeps the first round's cells for verification and the replays.
func (t *table2) checkRound(d *digest, cells []phonocmap.RunnerSweepCellResult, r *report) {
	if sum := d.sum(); t.digest == "" {
		t.digest, t.first = sum, cells
	} else {
		r.check(sum == t.digest, "round digest %s differs from the first round's %s", sum, t.digest)
	}
}

// check applies the output checks to the algorithm's sweep, adds its
// cells to the round's digest and returns the evaluations it completed.
func (sw *algoSweep) check(res phonocmap.RunnerSweepResult, d *digest, r *report) int {
	failed, evals := 0, 0
	for i, c := range res.Cells {
		if c.Error != "" {
			failed++
			r.fail("cell %d (%s): %s", i, c.Cell.Label(), c.Error)
			continue
		}
		evals += c.Evals
		r.check(c.Evals == c.Cell.Budget, "cell %d (%s) spent %d evaluations of its budget %d", i, c.Cell.Label(), c.Evals, c.Cell.Budget)
		if i < len(sw.keys) {
			d.add(sw.keys[i], c.Mapping, c.Score, c.Evals)
		}
	}
	r.ops(len(sw.keys), failed+len(sw.keys)-len(res.Cells))
	r.check(len(res.Cells) == len(sw.keys), "%s sweep returned %d cells, grid has %d", sw.algo, len(res.Cells), len(sw.keys))
	r.check(len(res.Table) == len(sw.spec.Apps), "%s Table II has %d rows, want one per app (%d)", sw.algo, len(res.Table), len(sw.spec.Apps))
	for _, row := range res.Table {
		_, mesh := row.Mesh[sw.algo]
		_, torus := row.Torus[sw.algo]
		r.check(mesh && torus && len(row.Mesh) == 1 && len(row.Torus) == 1,
			"%s Table II row %s does not hold exactly its mesh and torus cells", sw.algo, row.App)
	}
	return evals
}

// verify re-scores every winning mapping of the first round.
func (t *table2) verify(r *report) {
	v := newVerifier()
	for i, c := range t.first {
		if c.Error != "" {
			continue
		}
		if err := v.verify(c.Cell.Scenario(), c.Mapping, c.Score); err != nil {
			r.fail("cell %d (%s) does not re-score: %v", i, c.Cell.Label(), err)
		}
	}
}

func (t *table2) close() error { return nil }
