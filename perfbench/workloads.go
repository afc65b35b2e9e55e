package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so it describes a warm re-set-up. The cold first one,
// counted from process start, is logged beside it.
//
// A set-up is timed by the CPU time the process spends on it, on every
// thread. Its wall time, logged beside it, follows the host: at 15 %
// steal the median wall time of table2's 3 ms set-up doubled.
const setupRepeats = 15

// workload is one set of inputs the benchmark runs, with the reason it
// exists.
type workload struct {
	why   string
	setup func(o options) (instance, error)
	// op names the operation the go.* metrics are counted per 1000 of.
	op string
	// unmeasured names the per-layer metrics a traced run of the workload
	// does not report, and why.
	unmeasured []string
}

// unmeasuredEverywhere are the per-layer numbers no workload reports.
var unmeasuredEverywhere = []string{
	"network.builds, network.reuse: counting ArchSpec.Build calls inside the program needs spans inside the program; a count derived from the inputs would not move when the program reuses networks",
	"core.swap_us split into delta patch and aggregate rescan: needs spans inside the program",
	"internal/fleet, islands mode (seeds > 1) and /v1/sweeps: on no workload's path",
}

// workloads are the benchmark's workloads. Each stresses layers the
// others do not, so a change aimed at one layer should move one
// workload and leave the others unchanged.
var workloads = map[string]workload{
	"table2": {
		why:   "the paper's Table II grid (8 apps x mesh/torus x snr/loss x rs/ga/rpbla, 96 short cells on 3x3-6x6 networks) swept in-process with 2 workers, one sweep per algorithm: network builds, compile, sweep dispatch and searcher bookkeeping weigh heavily, the delta engine little",
		setup: setupTable2,
		op:    "evaluations",
		unmeasured: []string{
			"search.sa, search.tabu, search.memetic: not in the Table II grid",
			"service.*, cache.*, analyze.*, store.*, client.*: the grid runs in-process, without the service or analyses",
		},
	},
	"dense": {
		why:   "seeded 56-task/220-edge CGs (4, one per pass) on one 8x8 Crux/XY mesh, one Optimize per searcher: the swap, batch and full evaluation kernels do nearly all the work, with m = 220 behind every delta",
		setup: setupDense,
		op:    "evaluations",
		unmeasured: []string{
			"network.share: the one 8x8 build happens in set-up (it shows in setup_s)",
			"sweep.*: no sweep runs",
			"service.*, cache.*, analyze.*, store.*, client.*: the searches run in-process, without the service or analyses",
		},
	},
	"service": {
		why:   "an in-process phonocmap-serve driven by 2 closed-loop SDK clients, cache hits mixed with fresh analysed jobs: HTTP/JSON, queueing, compile on submit, the analyses, the result cache and the write-behind store",
		setup: setupService,
		op:    "requests",
		unmeasured: []string{
			"search.memetic: no request template uses it",
			"sweep.*: jobs are submitted one by one, not as a sweep",
		},
	},
}

// instance is one set-up workload.
type instance interface {
	// phase runs the timed section for about `seconds`, adding its
	// end-to-end metrics to m and its operation counts and check
	// failures to r, and returns the work it did. tr is nil in untraced
	// phases.
	phase(seconds float64, tr *tracer, m *report, r *report) (work, error)
	// layers replays the layer functions on the workload's own inputs
	// and adds the per-layer metrics; only traced runs call it.
	layers(tr *tracer, r *report) error
	// verify re-checks the phases' outputs after timing.
	verify(r *report)
	// close releases everything the set-up started.
	close() error
}

// run sets the workload up, runs it, and fills the report: end-to-end
// metrics in an untraced run, per-layer metrics and the tracing overhead
// in a traced one. A traced run splits --seconds between an untraced and
// a traced phase, so it takes about as long as an untraced run.
func (w workload) run(o options, r *report) error {
	var inst instance
	setups := make([]float64, setupRepeats)
	walls := make([]float64, setupRepeats)
	for i := range setups {
		if inst != nil {
			// Only one set-up is ever live, so the repeats do not raise
			// the workload's peak RSS.
			if err := inst.close(); err != nil {
				return err
			}
			inst = nil
			runtime.GC()
		}
		start, cpu := time.Now(), cpuTime()
		next, err := w.setup(o)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups[i], walls[i] = (cpuTime() - cpu).Seconds(), time.Since(start).Seconds()
		inst = next
		if i == 0 {
			if age, err := processAge(); err == nil {
				r.logf("cold start: %.2f s from process start to the end of the first set-up (kernel clock, 10 ms steps)", age.Seconds())
			}
		}
	}
	// Every timed phase starts from a heap returned to the OS.
	debug.FreeOSMemory()
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()
	r.logf("workload %s seed=%d: %s", o.workload, o.seed, w.why)

	e2e := newReport()
	e2e.add("setup_s", median(setups), "s", fmt.Sprintf("CPU time, median of %d set-ups %s; wall time %s", len(setups), fmtValues(setups), fmtValues(walls)))
	if !o.trace {
		if _, err := inst.phase(o.seconds, nil, e2e, r); err != nil {
			return err
		}
		r.merge(e2e)
	} else {
		done, err := inst.phase(o.seconds/2, nil, e2e, r)
		if err != nil {
			return err
		}
		done.report(r, w.op)
		tr := newTracer()
		traced := newReport()
		if _, err := inst.phase(o.seconds/2, tr, traced, r); err != nil {
			return err
		}
		if err := inst.layers(tr, r); err != nil {
			return err
		}
		reportOverhead(e2e, traced, r)
		tr.reportSelfTimes(r)
		for _, u := range append(w.unmeasured, unmeasuredEverywhere...) {
			r.logf("not measured: %s", u)
		}
		if err := tr.write(o.tmpdir, o.workload, o.seed); err != nil {
			r.logf("trace spans not written: %v", err)
		}
	}
	inst.verify(r)
	closed = true
	return inst.close()
}

// reportOverhead prints both end-to-end runs of a traced invocation and
// adds the traced-minus-untraced difference of each metric.
func reportOverhead(untraced, traced, r *report) {
	for _, name := range untraced.order {
		u := untraced.metrics[name]
		r.logf("untraced %-30s %14.6g %s", name, u.Value, u.Unit)
		t, ok := traced.metrics[name]
		if !ok {
			continue
		}
		r.logf("traced   %-30s %14.6g %s", name, t.Value, t.Unit)
		r.add("overhead."+name, t.Value-u.Value, u.Unit, "traced minus untraced")
	}
}
