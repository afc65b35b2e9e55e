// Command perfbench is phonocmap's repeatable end-to-end benchmark.
//
// It runs one workload per process and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the workload runs untraced and then traced, replays the layer functions
// on its own inputs, and the metrics are the per-layer ones. Every
// workload reports the same metrics (endToEnd, perLayer), as
// BENCHMARK.json lists them. Human-readable lines before the JSON give the
// environment, sample counts beside every percentile, the output digest,
// the numbers only some workloads have (as `logged` lines) and, in traced
// runs, each layer's self time and the tracing overhead.
//
// Workloads (see workloads.go for why each exists): table2, dense, service.
//
//	go build -o perfbench . && ./perfbench --workload dense --seed 1 --seconds 10 --trace 0
//
// The process exits 1 when any output check fails, and 2 on a usage or
// set-up error, without printing a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tmpdir   string
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: table2, dense or service")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed phase measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&o.tmpdir, "tmpdir", ".bench_build/tmp", "directory for temporary files: the service workload's store and trace spans")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	env := readEnv()
	out := newReport()
	if err := workloads[o.workload].run(o, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(2)
	}
	env.finish()
	env.print(os.Stdout)
	gated := endToEnd
	if o.trace {
		gated = perLayer
	}
	if !out.print(os.Stdout, gated) {
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultMetric names a metric of the JSON result and its unit.
type resultMetric struct{ name, unit string }

// endToEnd are the metrics of an untraced run's result. Every workload
// reports every one of them; BENCHMARK.json lists the same names and
// units.
var endToEnd = []resultMetric{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"evals_per_s", "evals/s"},
	{"swap_evals_per_s", "evals/s"},
	{"batch_evals_per_s", "evals/s"},
	{"full_evals_per_s", "evals/s"},
	{"jobs_per_s", "jobs/s"},
}

// perLayer are the metrics of a traced run's result: the per-layer
// numbers every workload measures. A traced run prints the numbers of
// layers only some workloads reach (sweep, service, cache, analyses,
// store, client) as `logged` lines, and so the runtime's GC cycles and
// pause time: dense allocates too little for a collection in a run, so
// they read 0 there every time.
var perLayer = []resultMetric{
	{"go.alloc_mb", "MiB/kop"},
	{"network.build_ms", "ms"},
	{"scenario.normalize_us", "us"},
	{"scenario.key_us", "us"},
	{"scenario.compile_ms", "ms"},
	{"analysis.delta_us", "us"},
	{"analysis.full_us", "us"},
	{"core.full_us", "us"},
	{"core.swap_us", "us"},
	{"core.reseat_us", "us"},
	{"core.batch_us", "us"},
	{"core.evals", "count"},
	{"search.rs.evals_per_s", "evals/s"},
	{"search.ga.evals_per_s", "evals/s"},
	{"search.rpbla.evals_per_s", "evals/s"},
	{"search.swap.bookkeeping_share", "fraction"},
	{"search.batch.bookkeeping_share", "fraction"},
	{"search.full.bookkeeping_share", "fraction"},
	{"overhead.peak_rss_mb", "MiB"},
	{"overhead.evals_per_s", "evals/s"},
	{"overhead.swap_evals_per_s", "evals/s"},
	{"overhead.batch_evals_per_s", "evals/s"},
	{"overhead.full_evals_per_s", "evals/s"},
	{"overhead.jobs_per_s", "jobs/s"},
}

// report collects a run's metrics, notes and check failures, and prints
// them: readable lines first, the JSON result last.
type report struct {
	order     []string
	metrics   map[string]metric
	notes     map[string]string
	lines     []string
	failures  []string
	attempted int
	failed    int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// add records a metric; note is printed beside it (sample counts,
// "derived").
func (r *report) add(name string, value float64, unit, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.fail("%s is not a finite number (%v)", name, value)
		return
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// merge copies another report's metrics, lines, failures and counts.
func (r *report) merge(o *report) {
	for _, name := range o.order {
		m := o.metrics[name]
		r.add(name, m.Value, m.Unit, o.notes[name])
	}
	r.lines = append(r.lines, o.lines...)
	r.failures = append(r.failures, o.failures...)
	r.ops(o.attempted, o.failed)
}

// addPercentile records a percentile metric with its sample count, or a
// failure when the samples cannot support it.
func (r *report) addPercentile(name string, samples []float64, p float64, unit string) {
	v, beyond, ok := percentile(samples, p)
	if !ok {
		r.fail("%s: %d samples leave %d beyond p%g, need at least %d", name, len(samples), beyond, p, minBeyond)
		return
	}
	r.add(name, v, unit, fmt.Sprintf("n=%d, %d beyond", len(samples), beyond))
}

// logf adds a readable line to the output.
func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check records a failure unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// ops counts operations attempted and failed.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the report and returns whether every check passed. The
// JSON result holds exactly the gated metrics; a gated metric that is
// missing or in another unit fails the run, and any other metric is
// printed as a `logged` line only.
func (r *report) print(f io.Writer, gated []resultMetric) bool {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	inResult := map[string]metric{}
	for _, g := range gated {
		m, ok := r.metrics[g.name]
		switch {
		case !ok:
			r.fail("result metric %s was not measured", g.name)
		case m.Unit != g.unit:
			r.fail("result metric %s is in %s, want %s", g.name, m.Unit, g.unit)
		default:
			inResult[g.name] = m
		}
	}
	for _, name := range r.order {
		m := r.metrics[name]
		kind := "metric"
		if _, ok := inResult[name]; !ok {
			kind = "logged"
		}
		line := fmt.Sprintf("%s %-36s %14.6g %s", kind, name, m.Value, m.Unit)
		if n := r.notes[name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(f, line)
	}
	if r.failed > 0 {
		r.fail("%d of %d operations failed", r.failed, r.attempted)
	}
	if r.attempted < 1 {
		r.fail("no operation was attempted")
	}
	for _, msg := range r.failures {
		fmt.Fprintln(f, "CHECK FAILED:", msg)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	res := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   inResult,
	}
	b, err := json.Marshal(res)
	if err != nil {
		// add rejects NaN and Inf, so plain numbers always encode.
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return false
	}
	fmt.Fprintln(f, string(b))
	return res.Correct
}
