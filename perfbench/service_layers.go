package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"phonocmap"
	"phonocmap/internal/service"
)

// layers reports the service's layers from the traced phase — HTTP round
// trips, the server-side phases read from the job status timestamps, the
// result cache, the store backlog and the client's counters — then stops
// the server and replays the analyses and the store on the run's own
// mappings and entries.
func (s *svc) layers(tr *tracer, r *report) error {
	var submitHit, submitMiss, queue, run, optimize, notify, result, resultKB []float64
	use := networkUse{}
	for _, o := range s.traced {
		if o.info.err != nil {
			continue
		}
		result = append(result, o.info.resultMs)
		resultKB = append(resultKB, float64(o.info.resultBytes)/1024)
		if o.req.hit >= 0 {
			submitHit = append(submitHit, o.info.submitMs)
			continue
		}
		submitMiss = append(submitMiss, o.info.submitMs)
		optimize = append(optimize, o.miss.durationMs)
		var st service.JobStatus
		if err := json.Unmarshal(o.info.terminal, &st); err != nil {
			r.fail("request %d: terminal status unreadable: %v", o.info.req, err)
			continue
		}
		sub, err1 := time.Parse(time.RFC3339Nano, st.Submitted)
		started, err2 := time.Parse(time.RFC3339Nano, st.Started)
		fin, err3 := time.Parse(time.RFC3339Nano, st.Finished)
		if err1 != nil || err2 != nil || err3 != nil {
			r.fail("request %d: job timestamps unreadable", o.info.req)
			continue
		}
		queue = append(queue, ms(started.Sub(sub)))
		run = append(run, ms(fin.Sub(started)))
		notify = append(notify, ms(o.info.terminalSeen-tr.at(fin)))
		tr.add(span{Name: "server.queue", Start: tr.at(sub), End: tr.at(started), Parent: o.info.root, Req: o.info.req, Derived: true})
		rs := tr.add(span{Name: "server.run", Start: tr.at(started), End: tr.at(fin), Parent: o.info.root, Req: o.info.req, Derived: true})
		opt := time.Duration(o.miss.durationMs * float64(time.Millisecond))
		tr.add(span{Name: "server.optimize", Start: tr.at(started), End: tr.at(started) + opt, Parent: rs, Req: o.info.req, Derived: true})

		// Builds the job implies: its compile on submit, one per
		// robustness sample, one per link cut.
		use.add(o.miss.arch, 1+o.miss.samples)
		cut := o.miss.arch
		cut.Routing = "bfs"
		cut.FailedLinks = [][2]int{{0, 1}}
		use.add(cut, o.miss.cuts)
	}
	r.addPercentile("service.submit_hit_ms_p50", submitHit, 50, "ms")
	r.addPercentile("service.submit_miss_ms_p50", submitMiss, 50, "ms")
	r.addPercentile("service.queue_ms_p50", queue, 50, "ms")
	r.addPercentile("service.queue_ms_p90", queue, 90, "ms")
	r.addPercentile("service.run_ms_p50", run, 50, "ms")
	r.addPercentile("service.optimize_ms_p50", optimize, 50, "ms")
	r.addPercentile("service.notify_ms_p50", notify, 50, "ms")
	r.addPercentile("service.result_ms_p50", result, 50, "ms")
	r.add("service.result_kb", mean(resultKB), "KiB", "mean GET /result body")
	var busy float64
	for _, v := range run {
		busy += v
	}
	r.add("service.workers_busy_frac", busy/(serviceWorkers*ms(s.tracedWall)), "fraction",
		"derived: sum of job run times / (workers x wall)")
	if err := use.report(r, serviceWorkers*s.tracedWall, "over the traced phase, against both workers' time"); err != nil {
		return err
	}

	b, a := s.cacheBefore, s.cacheAfter
	lookups := float64((a.Hits - b.Hits) + (a.Misses - b.Misses))
	if lookups > 0 {
		r.add("cache.hit_ratio", float64(a.Hits-b.Hits)/lookups, "ratio", "GET /v1/cache over the traced phase")
	}
	k := float64(s.tracedOps) / 1000
	r.add("cache.evictions", float64(a.Evictions-b.Evictions)/k, "1/kop", "per 1000 requests, GET /v1/cache over the traced phase")
	if a.Store != nil && b.Store != nil {
		r.add("store.pending_max", float64(s.pendingMax), "count", "write-behind backlog, sampled every 50 ms")
		r.add("store.errors", float64(a.Store.Errors-b.Store.Errors), "count", "GET /v1/cache over the traced phase")
	}
	r.add("client.retries", float64(s.clientDelta.Retries), "count", "Client.Metrics")
	r.add("client.sse_fallbacks", float64(s.clientDelta.SSEFallbacks), "count", "Client.Metrics")
	r.add("client.poll_rounds", float64(s.clientDelta.PollRounds)/k, "1/kop", "per 1000 requests, Client.Metrics")

	specs := make([]phonocmap.Scenario, 0, len(s.hits)+len(missTemplates))
	for _, h := range s.hits {
		specs = append(specs, h.spec)
	}
	if err := addScenario(r, specs); err != nil {
		return err
	}
	if err := s.replayKernels(r); err != nil {
		return err
	}
	if err := s.replayAnalyses(r); err != nil {
		return err
	}
	// The store replay reads the server's own files, so the server must
	// have drained its write-behind backlog and let go of the directory.
	if err := s.stop(); err != nil {
		return err
	}
	return s.replayStore(r)
}

// replayKernels measures the evaluation kernels on each template's
// problem, seated on one of its fresh keys' winning mappings, and reports
// the traced phase's searches against them.
func (s *svc) replayKernels(r *report) error {
	ks := make([]kernels, len(missTemplates))
	seated := make([]bool, len(missTemplates))
	var all []kernels
	for _, o := range s.misses {
		ti := o.req.tmpl
		if seated[ti] {
			continue
		}
		comp, err := phonocmap.CompileScenario(missTemplates[ti].spec(o.req.seed))
		if err != nil {
			return err
		}
		if ks[ti], err = measureKernels(comp.Problem, o.miss.mapping, o.req.seed); err != nil {
			return err
		}
		seated[ti] = true
		all = append(all, ks[ti])
	}
	addKernels(r, all, fmt.Sprintf("mean over %d templates' problems", len(all)))
	var runs []problemRun
	evals := 0
	for _, o := range s.traced {
		if o.miss == nil {
			continue
		}
		runs = append(runs, problemRun{o.search(), ks[o.req.tmpl]})
		evals += o.miss.evals
	}
	r.add("core.evals", float64(evals), "count", "the traced phase's fresh keys")
	addSearch(r, runs, "the traced phase's fresh keys, over the search time the server measured")
	return nil
}

// analysisKinds are the analyses a report can hold, in report order.
var analysisKinds = []string{"wdm", "power", "robustness", "link_failures", "sim"}

// onlyAnalysis returns a block that runs just the named analysis of a, or
// nil when a does not ask for it.
func onlyAnalysis(a *phonocmap.AnalysesSpec, kind string) *phonocmap.AnalysesSpec {
	switch {
	case kind == "wdm" && a.WDM != nil:
		return &phonocmap.AnalysesSpec{WDM: a.WDM}
	case kind == "power" && a.Power != nil:
		return &phonocmap.AnalysesSpec{Power: a.Power}
	case kind == "robustness" && a.Robustness != nil:
		return &phonocmap.AnalysesSpec{Robustness: a.Robustness}
	case kind == "link_failures" && a.LinkFailures != nil:
		return &phonocmap.AnalysesSpec{LinkFailures: a.LinkFailures}
	case kind == "sim" && a.Sim != nil:
		return &phonocmap.AnalysesSpec{Sim: a.Sim}
	}
	return nil
}

// analysesPerKind bounds how many winning mappings each analysis replays.
const analysesPerKind = 20

// replayAnalyses runs Compiled.Analyze with one analysis block at a time
// on the fresh keys' winning mappings.
func (s *svc) replayAnalyses(r *report) error {
	for _, kind := range analysisKinds {
		var times []float64
		for ti, tmpl := range missTemplates {
			block := onlyAnalysis(tmpl.analyses, kind)
			if block == nil {
				continue
			}
			var comp *phonocmap.CompiledScenario
			n := 0
			for _, o := range s.misses {
				if o.req.tmpl != ti || n >= analysesPerKind {
					continue
				}
				if comp == nil {
					spec := tmpl.spec(o.req.seed)
					spec.Analyses = block
					var err error
					if comp, err = phonocmap.CompileScenario(spec); err != nil {
						return err
					}
				}
				start := time.Now()
				if _, err := comp.Analyze(o.miss.mapping, o.miss.score); err != nil {
					return err
				}
				times = append(times, ms(time.Since(start)))
				n++
			}
		}
		if len(times) == 0 {
			r.logf("not measured: analyze.%s_ms: no fresh key asked for it", kind)
			continue
		}
		r.add("analyze."+kind+"_ms", median(times), "ms",
			fmt.Sprintf("Compiled.Analyze with only %s, median of %d winning mappings", kind, len(times)))
	}
	return nil
}

// storeReplayEntries bounds the store replay.
const storeReplayEntries = 100

// replayStore reads the run's own entries back with store.File.Get and
// writes them to a fresh store with Put.
func (s *svc) replayStore(r *report) error {
	src, err := phonocmap.OpenFileStore(s.dir, phonocmap.FileStoreOptions{})
	if err != nil {
		return err
	}
	defer src.Close()
	dstDir := filepath.Join(s.dir, "replay")
	dst, err := phonocmap.OpenFileStore(dstDir, phonocmap.FileStoreOptions{})
	if err != nil {
		return err
	}
	defer func() {
		dst.Close()
		os.RemoveAll(dstDir)
	}()
	keys := src.Keys()
	if len(keys) > storeReplayEntries {
		keys = keys[:storeReplayEntries]
	}
	var gets, puts []float64
	for _, k := range keys {
		start := time.Now()
		e, ok, err := src.Get(k)
		gets = append(gets, ms(time.Since(start)))
		if err != nil || !ok {
			r.fail("store entry %s unreadable (found %v): %v", k, ok, err)
			continue
		}
		start = time.Now()
		if err := dst.Put(k, e); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(start)))
	}
	if len(keys) == 0 {
		r.logf("not measured: store.get_ms_p50, store.put_ms_p50, store.entry_kb: the store holds no entry")
		return nil
	}
	r.add("store.get_ms_p50", median(gets), "ms", fmt.Sprintf("store.File.Get, %d entries", len(gets)))
	r.add("store.put_ms_p50", median(puts), "ms", fmt.Sprintf("store.File.Put (fsynced), %d entries", len(puts)))
	st := src.Stats()
	if st.Entries > 0 {
		r.add("store.entry_kb", float64(st.Bytes)/float64(st.Entries)/1024, "KiB", fmt.Sprintf("mean of %d entries on disk", st.Entries))
	}
	return nil
}
