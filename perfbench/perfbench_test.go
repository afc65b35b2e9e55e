package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"phonocmap"
	"phonocmap/internal/sweep"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: percentile must sort
		}
		return v
	}
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{100, 90, 90, 10, true},
		{99, 90, 90, 9, false},
		{20, 50, 10, 10, true},
		{19, 50, 10, 9, false},
		{1000, 90, 900, 100, true},
		{0, 50, 0, 0, false},
	}
	for _, c := range cases {
		v, beyond, ok := percentile(seq(c.n), c.p)
		if v != c.value || beyond != c.beyond || ok != c.ok {
			t.Errorf("p%g of %d samples = (%v, %d beyond, %v), want (%v, %d, %v)",
				c.p, c.n, v, beyond, ok, c.value, c.beyond, c.ok)
		}
	}
}

func TestAddPercentileReportsSampleCountOrFails(t *testing.T) {
	r := newReport()
	r.addPercentile("x_p90", make([]float64, 100), 90, "ms")
	if got := r.notes["x_p90"]; got != "n=100, 10 beyond" {
		t.Errorf("note = %q, want the sample count", got)
	}
	r.addPercentile("y_p90", make([]float64, 50), 90, "ms")
	if _, ok := r.metrics["y_p90"]; ok || len(r.failures) != 1 {
		t.Errorf("p90 of 50 samples: metric present %v, failures %v; want a failure instead", ok, r.failures)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestSumByUsesEachKeysOwnTime(t *testing.T) {
	c := func(algo string, evals int, wall time.Duration) call {
		return call{algo, rate{work: evals, wall: wall, cores: 1}}
	}
	calls := []call{
		c("sa", 100, time.Second),
		c("tabu", 300, time.Second),
		c("ga", 50, 2*time.Second),
		c("memetic", 50, 3*time.Second),
		c("rs", 10, 500*time.Millisecond),
	}
	fam := sumBy(calls, familyOf)
	want := map[string]float64{"swap": 200, "batch": 20, "full": 20}
	for f, w := range want {
		if got := fam[f].perSecond(); got != w {
			t.Errorf("%s: %v evals/s, want %v", f, got, w)
		}
	}
	if got := sumBy(calls, algoOf)["tabu"].perSecond(); got != 300 {
		t.Errorf("tabu alone: %v, want 300", got)
	}
	if got := medianRate([]rate{{work: 10, wall: time.Second}, {work: 30, wall: time.Second}, {work: 1, wall: time.Second}}); got != 10 {
		t.Errorf("median rate = %v, want 10", got)
	}
}

func TestRateChargesIdleTimeAndNotStolenTime(t *testing.T) {
	// Two busy cores for 10 s, 4 s of CPU time stolen across them: the
	// work had 10 - 4/2 = 8 s of each core.
	r := rate{work: 800, wall: 10 * time.Second, cpu: 16 * time.Second, steal: 4 * time.Second, cores: 2}
	if got := r.perSecond(); got != 100 {
		t.Errorf("stolen time: %v/s, want 100", got)
	}
	// A worker that sits idle for half the sweep uses no CPU time, but
	// the wall time and so the rate still show it.
	idle := rate{work: 800, wall: 16 * time.Second, cpu: 16 * time.Second, cores: 2}
	if got := idle.perSecond(); got != 50 {
		t.Errorf("idle worker: %v/s, want 50", got)
	}
	if got := idle.perCPUSecond(); got != 50 {
		t.Errorf("per CPU-second: %v, want 50", got)
	}
	if got := (rate{work: 1, wall: time.Second, steal: 3 * time.Second, cores: 1}).perSecond(); got != 1 {
		t.Errorf("more steal than wall time: %v/s, want the plain wall rate 1", got)
	}
	sum := r.plus(idle)
	if sum.work != 1600 || sum.wall != 26*time.Second || sum.steal != 4*time.Second || sum.cores != 2 || sum.onCPU {
		t.Errorf("plus = %+v", sum)
	}
	// Work that never waits is timed by CPU time, whatever the machine's
	// steal, and stays so when summed.
	search := rate{work: 100, wall: 4 * time.Second, cpu: 2 * time.Second, steal: 3 * time.Second, cores: 1, onCPU: true}
	if got := search.perSecond(); got != 50 {
		t.Errorf("on-CPU work: %v/s, want 50", got)
	}
	if got := (rate{}).plus(search).plus(search); !got.onCPU || got.perSecond() != 50 {
		t.Errorf("summed on-CPU work: %+v, %v/s, want 50", got, got.perSecond())
	}
}

func TestWorkReportIsPerThousandOps(t *testing.T) {
	r := newReport()
	w := work{ops: 4000, gc: goStats{gcCycles: 8, allocBytes: 40 << 20, pauseSec: 0.002}}
	w.report(r, "evaluations")
	for name, want := range map[string]float64{"go.gc_cycles": 2, "go.alloc_mb": 10, "go.gc_pause_ms": 0.5} {
		if got := r.metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	r = newReport()
	work{}.report(r, "requests")
	if len(r.failures) != 1 {
		t.Errorf("a phase without work reported %v, want one failure", r.metrics)
	}
}

func TestProcessAge(t *testing.T) {
	age, err := processAge()
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	if age < 0 || age > time.Hour {
		t.Errorf("process age %v", age)
	}
}

func TestPeaksAreTheMedianChunkPeak(t *testing.T) {
	var p peaks
	p.start()
	if !p.reset {
		t.Skip("the kernel refuses to reset VmHWM here")
	}
	p.stop()
	p.mib = append(p.mib, 1e6, 1e6) // two chunks far above any real peak
	r := newReport()
	if err := p.report(r, "chunks"); err != nil {
		t.Fatal(err)
	}
	if got := r.metrics["peak_rss_mb"].Value; got != 1e6 {
		t.Errorf("peak_rss_mb = %v, want the median chunk peak 1e6", got)
	}
	stop := samplePeaks(time.Hour)
	if got := stop(); len(got.mib) != 1 || got.mib[0] <= 0 {
		t.Errorf("one unfinished chunk recorded %v, want one positive peak", got.mib)
	}
}

func TestResultHoldsExactlyTheGatedMetrics(t *testing.T) {
	gated := []resultMetric{{"rate", "1/s"}}
	r := newReport()
	r.ops(1, 0)
	r.add("rate", 1, "1/s", "")
	r.add("latency", 2, "ms", "")
	var out strings.Builder
	if !r.print(&out, gated) {
		t.Fatalf("print failed: %s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Metrics["rate"]; !ok || len(res.Metrics) != 1 {
		t.Errorf("result metrics %v, want only the gated one", res.Metrics)
	}
	if !strings.Contains(out.String(), "logged latency") {
		t.Errorf("the ungated metric was not printed:\n%s", out.String())
	}

	r = newReport()
	r.ops(1, 0)
	r.add("latency", 2, "ms", "")
	if r.print(io.Discard, gated) || !hasFailure(r, "rate was not measured") {
		t.Errorf("a run without a gated metric passed: %v", r.failures)
	}
	r = newReport()
	r.ops(1, 0)
	r.add("rate", 1, "1/ms", "")
	if r.print(io.Discard, gated) || !hasFailure(r, "rate is in 1/ms") {
		t.Errorf("a gated metric in the wrong unit passed: %v", r.failures)
	}
}

// The JSON result must hold exactly the metrics the manifest lists, so
// the lists in main.go and BENCHMARK.json must agree, name and unit.
func TestResultMetricsMatchTheManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind   string
		listed []struct{ Name, Unit string }
		gated  []resultMetric
	}{{"end_to_end", manifest.EndToEnd, endToEnd}, {"per_layer", manifest.PerLayer, perLayer}} {
		var listed, gated []string
		for _, m := range c.listed {
			listed = append(listed, m.Name+" "+m.Unit)
		}
		for _, m := range c.gated {
			gated = append(gated, m.name+" "+m.unit)
		}
		if strings.Join(listed, ", ") != strings.Join(gated, ", ") {
			t.Errorf("%s: BENCHMARK.json lists\n  %v\nthe benchmark reports\n  %v", c.kind, listed, gated)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: 0, End: ms(100), Parent: -1},
		{Name: "child", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "child", Start: ms(20), End: ms(50), Parent: 0},  // overlaps the first
		{Name: "child", Start: ms(90), End: ms(120), Parent: 0}, // runs past the parent
		{Name: "grandchild", Start: ms(15), End: ms(25), Parent: 1},
		{Name: "open", Start: ms(5), End: -1, Parent: 0},
	}
	got := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		got[st.name] = st
	}
	if st := got["root"]; st.self != ms(50) || st.total != ms(100) {
		t.Errorf("root self=%v total=%v, want 50ms of 100ms", st.self, st.total)
	}
	if st := got["child"]; st.count != 3 || st.self != ms(20+30+30-10) {
		t.Errorf("child n=%d self=%v, want 3 spans, 70ms", st.count, st.self)
	}
	if _, ok := got["open"]; ok {
		t.Error("an unfinished span was counted")
	}
}

func TestTracerIsANoOpWhenNil(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.add(span{}) != -1 {
		t.Error("nil tracer recorded a span")
	}
}

func TestSweepTail(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	done := []time.Duration{ms(5), ms(1), ms(9), ms(3)}
	if tail, ok := sweepTail(done, 2); !ok || tail != ms(4) {
		t.Errorf("2 workers: tail %v (%v), want 4ms: the first worker idles at the 3rd completion", tail, ok)
	}
	if tail, ok := sweepTail(done, 3); !ok || tail != ms(6) {
		t.Errorf("3 workers: tail %v (%v), want 6ms", tail, ok)
	}
	if tail, ok := sweepTail(done, 1); !ok || tail != 0 {
		t.Errorf("1 worker: tail %v (%v), want 0", tail, ok)
	}
	if _, ok := sweepTail(done[:1], 2); ok {
		t.Error("fewer cells than workers gave a tail")
	}
}

// smallRun optimizes PIP briefly and returns its scenario and result.
func smallRun(t *testing.T) (phonocmap.Scenario, phonocmap.RunResult) {
	t.Helper()
	spec := phonocmap.Scenario{App: phonocmap.AppSpec{Builtin: "PIP"}, Objective: "snr"}
	comp, err := phonocmap.CompileScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := phonocmap.Optimize(comp.Problem, "rpbla", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	return comp.Spec, res
}

func TestVerifierRejectsATamperedScore(t *testing.T) {
	spec, res := smallRun(t)
	v := newVerifier()
	if err := v.verify(spec, res.Mapping, res.Score); err != nil {
		t.Fatalf("honest score rejected: %v", err)
	}
	tampered := res.Score
	tampered.WorstSNRDB += 1e-9
	if err := v.verify(spec, res.Mapping, tampered); err == nil {
		t.Error("tampered score accepted")
	}
	swappedMapping := res.Mapping.Clone()
	swappedMapping[0], swappedMapping[1] = swappedMapping[1], swappedMapping[0]
	if err := v.verify(spec, swappedMapping, res.Score); err == nil {
		t.Error("score accepted for a different mapping")
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	_, res := smallRun(t)
	sum := func(key string, m phonocmap.Mapping, s phonocmap.Score, evals int) string {
		d := newDigest()
		d.add(key, m, s, evals)
		return d.sum()
	}
	base := sum("k", res.Mapping, res.Score, res.Evals)
	if again := sum("k", res.Mapping, res.Score, res.Evals); again != base {
		t.Fatalf("digest not deterministic: %s vs %s", base, again)
	}
	tampered := res.Score
	tampered.Cost = tampered.Cost + tampered.Cost*1e-15
	other := res.Mapping.Clone()
	other[0], other[1] = other[1], other[0]
	for name, d := range map[string]string{
		"key":     sum("k2", res.Mapping, res.Score, res.Evals),
		"mapping": sum("k", other, res.Score, res.Evals),
		"score":   sum("k", res.Mapping, tampered, res.Evals),
		"evals":   sum("k", res.Mapping, res.Score, res.Evals+1),
	} {
		if d == base {
			t.Errorf("changing the %s left the digest unchanged", name)
		}
	}
}

func TestCheckSweepFailsOnBadCells(t *testing.T) {
	spec, res := smallRun(t)
	cell := phonocmap.SweepCell{App: spec.App, Arch: spec.Arch, Objective: "snr", Algorithm: "rpbla", Budget: 200, Seed: 1, Islands: 1}
	good := phonocmap.RunnerSweepCellResult{Cell: cell, Mapping: res.Mapping, Score: res.Score, Evals: 200}
	sw := &algoSweep{algo: "rpbla", spec: phonocmap.SweepSpec{Apps: []phonocmap.AppSpec{spec.App}}, keys: []string{"k"}}
	table := []phonocmap.SweepTableRow{{App: "PIP",
		Mesh:  map[string]sweep.TableCell{"rpbla": {}},
		Torus: map[string]sweep.TableCell{"rpbla": {}}}}
	// round runs one round of the one sweep and checks it.
	round := func(tb *table2, r *report, cells ...phonocmap.RunnerSweepCellResult) {
		d := newDigest()
		sw.check(phonocmap.RunnerSweepResult{Cells: cells, Table: table}, d, r)
		tb.checkRound(d, cells, r)
	}

	tb, r := &table2{}, newReport()
	round(tb, r, good)
	round(tb, r, good)
	if len(r.failures) != 0 || r.failed != 0 || r.attempted != 2 {
		t.Fatalf("two good rounds: failures %v, %d of %d failed", r.failures, r.failed, r.attempted)
	}

	short := good
	short.Evals = 199
	tb, r = &table2{}, newReport()
	round(tb, r, short)
	if !hasFailure(r, "spent 199 evaluations") {
		t.Errorf("a cell short of its budget passed: %v", r.failures)
	}

	broken := phonocmap.RunnerSweepCellResult{Cell: cell, Error: "boom"}
	tb, r = &table2{}, newReport()
	round(tb, r, broken)
	if r.failed != 1 || r.attempted != 1 {
		t.Errorf("failed cell counted %d of %d", r.failed, r.attempted)
	}

	r = newReport()
	sw.check(phonocmap.RunnerSweepResult{Cells: []phonocmap.RunnerSweepCellResult{good}, Table: []phonocmap.SweepTableRow{{App: "PIP",
		Mesh: map[string]sweep.TableCell{"rs": {}}, Torus: map[string]sweep.TableCell{"rpbla": {}}}}}, newDigest(), r)
	if !hasFailure(r, "mesh and torus") {
		t.Errorf("a Table II row without the sweep's algorithm passed: %v", r.failures)
	}

	tampered := good
	tampered.Score.Cost++
	tb, r = &table2{}, newReport()
	round(tb, r, good)
	round(tb, r, tampered)
	if !hasFailure(r, "digest") {
		t.Errorf("a round that disagrees with the first passed: %v", r.failures)
	}
}

func TestCheckHitFailsOnAMismatchedReplay(t *testing.T) {
	spec, res := smallRun(t)
	filled := phonocmap.RunnerScenarioResult{Spec: spec, Mapping: res.Mapping, Score: res.Score, Evals: res.Evals, DurationMs: 1.5}
	b, err := json.Marshal(filled)
	if err != nil {
		t.Fatal(err)
	}
	s := &svc{hits: []hitKey{{spec: spec, bytes: b}}}
	cached := &callInfo{submitStatus: http.StatusOK}
	if msg := s.checkHit(0, cached, filled); msg != "" {
		t.Fatalf("identical replay rejected: %s", msg)
	}
	replay := filled
	replay.DurationMs = 1.25
	if msg := s.checkHit(0, cached, replay); msg == "" {
		t.Error("replay with a different duration accepted")
	}
	replay = filled
	replay.Score.WorstLossDB -= 0.5
	if msg := s.checkHit(0, cached, replay); msg == "" {
		t.Error("replay with a tampered score accepted")
	}
	if msg := s.checkHit(0, &callInfo{submitStatus: http.StatusAccepted}, filled); msg == "" {
		t.Error("an uncached repeat accepted")
	}
}

func TestSequenceIsSeededAndStratified(t *testing.T) {
	const hitSet = 10
	draw := func(seed int64, n int) []request {
		s := newSequence(seed, hitSet)
		out := make([]request, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	n := (hitsPerMiss + 1) * len(missTemplates) * 20
	a, b := draw(7, n), draw(7, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two draws of one seed", i)
		}
	}
	if c := draw(8, n); equalRequests(a, c) {
		t.Error("two seeds gave the same sequence")
	}
	seeds := map[int64]bool{}
	var tmplOrder []int
	for blk := 0; blk < n/(hitsPerMiss+1); blk++ {
		misses := 0
		for _, r := range a[blk*(hitsPerMiss+1) : (blk+1)*(hitsPerMiss+1)] {
			if r.hit >= 0 {
				if r.hit >= hitSet {
					t.Fatalf("hit index %d outside the hit set", r.hit)
				}
				continue
			}
			misses++
			if r.seed < freshSeedBase || seeds[r.seed] {
				t.Fatalf("fresh seed %d repeats or collides with the prefilled range", r.seed)
			}
			seeds[r.seed] = true
			tmplOrder = append(tmplOrder, r.tmpl)
		}
		if misses != 1 {
			t.Fatalf("block %d has %d misses, want 1", blk, misses)
		}
	}
	for i := 0; i+len(missTemplates) <= len(tmplOrder); i += len(missTemplates) {
		seen := map[int]bool{}
		for _, tm := range tmplOrder[i : i+len(missTemplates)] {
			seen[tm] = true
		}
		if len(seen) != len(missTemplates) {
			t.Fatalf("misses %d..%d do not use every template once: %v", i, i+len(missTemplates), tmplOrder[i:i+len(missTemplates)])
		}
	}
}

func equalRequests(a, b []request) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReportFailsOnFailedOperations(t *testing.T) {
	r := newReport()
	r.ops(10, 1)
	r.add("x", 1, "s", "")
	gated := []resultMetric{{"x", "s"}}
	if r.print(io.Discard, gated) {
		t.Error("a run with a failed operation printed correct")
	}
	r = newReport()
	r.add("x", 1, "s", "")
	if r.print(io.Discard, gated) {
		t.Error("a run that attempted nothing printed correct")
	}
	r = newReport()
	r.ops(1, 0)
	r.add("x", 1, "s", "")
	r.add("nan", 0/zero(), "s", "")
	if r.print(io.Discard, gated) {
		t.Error("a NaN metric printed correct")
	}
}

func zero() float64 { return 0 }

func TestLastEventAndCachedFlag(t *testing.T) {
	body := "event: status\ndata: {\"state\":\"running\"}\n\nevent: status\ndata: {\"state\":\"done\"}\n\n"
	if got := string(lastEvent([]byte(body))); got != `{"state":"done"}` {
		t.Errorf("last SSE event = %q", got)
	}
	if got := string(lastEvent([]byte(`{"state":"done"}`))); got != `{"state":"done"}` {
		t.Errorf("plain status body = %q", got)
	}
	if (&callInfo{submitStatus: http.StatusAccepted}).cached() {
		t.Error("202 read as cached")
	}
}

func TestParseCPUTicks(t *testing.T) {
	c := parseCPUTicks("cpu  100 0 50 800 10 0 5 35 7 0")
	if !c.ok || c.total != 1000 || c.steal != 35 {
		t.Errorf("parsed %+v, want total 1000 (guest excluded), steal 35", c)
	}
	if parseCPUTicks("intr 1 2 3").ok {
		t.Error("a non-cpu line parsed")
	}
}

func TestParseOptions(t *testing.T) {
	o, err := parseOptions(strings.Fields("--workload dense --seed 4 --seconds 2.5 --trace 1"))
	if err != nil || o.workload != "dense" || o.seed != 4 || o.seconds != 2.5 || !o.trace {
		t.Errorf("parsed %+v, %v", o, err)
	}
	for _, bad := range []string{"--workload nope", "--workload dense --trace 2", "--workload dense --seconds 0"} {
		if _, err := parseOptions(strings.Fields(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func hasFailure(r *report, substr string) bool {
	for _, f := range r.failures {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}
