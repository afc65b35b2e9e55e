package service

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"phonocmap/internal/scenario"
	"phonocmap/internal/store"
)

// metricFamilies is the documented contract of GET /metrics: every
// family the server exposes, with its exposition type. A family
// disappearing or changing type here is an observability regression
// even when the server otherwise works.
var metricFamilies = map[string]string{
	"phonocmap_http_requests_total":    "counter",
	"phonocmap_http_request_seconds":   "histogram",
	"phonocmap_evals_total":            "counter",
	"phonocmap_evals_finished_total":   "counter",
	"phonocmap_evals_per_sec":          "gauge",
	"phonocmap_uptime_seconds":         "gauge",
	"phonocmap_queue_depth":            "gauge",
	"phonocmap_queue_capacity":         "gauge",
	"phonocmap_workers":                "gauge",
	"phonocmap_workers_busy":           "gauge",
	"phonocmap_eval_workers":           "gauge",
	"phonocmap_batch_evals_total":      "counter",
	"phonocmap_worker_utilization":     "gauge",
	"phonocmap_jobs_active":            "gauge",
	"phonocmap_jobs_submitted_total":   "counter",
	"phonocmap_sweeps_active":          "gauge",
	"phonocmap_sweeps_submitted_total": "counter",
	"phonocmap_cache_hits_total":       "counter",
	"phonocmap_cache_misses_total":     "counter",
	"phonocmap_cache_evictions_total":  "counter",
	"phonocmap_cache_entries":          "gauge",
	"phonocmap_store_gets_total":       "counter",
	"phonocmap_store_hits_total":       "counter",
	"phonocmap_store_puts_total":       "counter",
	"phonocmap_store_errors_total":     "counter",
	"phonocmap_store_evictions_total":  "counter",
	"phonocmap_store_entries":          "gauge",
	"phonocmap_store_bytes":            "gauge",

	"phonocmap_network_builds_total":           "counter",
	"phonocmap_network_build_seconds_total":    "counter",
	"phonocmap_network_reuses_total":           "counter",
	"phonocmap_path_table_builds_total":        "counter",
	"phonocmap_path_table_build_seconds_total": "counter",
}

// scrapeMetrics fetches /metrics and parses the exposition strictly:
// every line must be a HELP comment, a TYPE comment, or a sample, and
// every sample must belong to a family with a preceding TYPE line.
func scrapeMetrics(t *testing.T, base string) (types map[string]string, samples map[string]float64) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics returned %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q does not declare exposition version 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	types = make(map[string]string)
	samples = make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			// help text is free-form; nothing to validate beyond shape
			if len(strings.SplitN(line[len("# HELP "):], " ", 2)) != 2 {
				t.Fatalf("malformed HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line[len("# TYPE "):], " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[0]] = parts[1]
		case line == "":
			t.Fatal("exposition contains a blank line")
		default:
			idx := strings.LastIndexByte(line, ' ')
			if idx < 0 {
				t.Fatalf("malformed sample line: %q", line)
			}
			series, val := line[:idx], line[idx+1:]
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("sample %q has unparseable value %q: %v", series, val, err)
			}
			name := series
			if b := strings.IndexByte(series, '{'); b >= 0 {
				name = series[:b]
			}
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if h := strings.TrimSuffix(name, suffix); h != name && types[h] == "histogram" {
					family = h
				}
			}
			if _, ok := types[family]; !ok {
				t.Fatalf("sample %q has no preceding TYPE line", series)
			}
			samples[series] = f
		}
	}
	return types, samples
}

// TestMetricsEndpoint drives real traffic through the server — a job, a
// cache replay, an unmatched probe — then scrapes /metrics and asserts
// every documented family is present with the right type and that the
// counters reflect what actually happened.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	base := ts.URL

	req := Request{Objective: "snr", Algorithm: "rs", Budget: 200, Seed: 1}
	req.App.Builtin = "PIP"
	var submitted JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", code)
	}
	pollUntil(t, base, submitted.ID, 60*time.Second, func(st JobStatus) bool {
		return st.State.Terminal()
	})
	// Same spec again: a cache replay.
	var replayed JobStatus
	doJSON(t, http.MethodPost, base+"/v1/jobs", req, &replayed)
	pollUntil(t, base, replayed.ID, 10*time.Second, func(st JobStatus) bool {
		return st.State.Terminal()
	})
	// A probe no route matches lands in the "unmatched" endpoint bucket.
	resp, err := http.Get(base + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	types, samples := scrapeMetrics(t, base)

	for family, wantType := range metricFamilies {
		if got, ok := types[family]; !ok {
			t.Errorf("family %s missing from /metrics", family)
		} else if got != wantType {
			t.Errorf("family %s has type %q, want %q", family, got, wantType)
		}
	}

	cfg := srv.Config()
	expect := func(series string, want float64) {
		t.Helper()
		if got, ok := samples[series]; !ok {
			t.Errorf("series %s missing", series)
		} else if got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	atLeast := func(series string, min float64) {
		t.Helper()
		if got, ok := samples[series]; !ok {
			t.Errorf("series %s missing", series)
		} else if got < min {
			t.Errorf("%s = %v, want >= %v", series, got, min)
		}
	}

	expect("phonocmap_workers", float64(cfg.Workers))
	expect("phonocmap_queue_capacity", float64(cfg.QueueSize))
	expect("phonocmap_eval_workers", 1)
	expect("phonocmap_cache_hits_total", 1)
	expect("phonocmap_cache_misses_total", 1)
	expect("phonocmap_cache_evictions_total", 0)
	expect("phonocmap_cache_entries", 1)
	expect("phonocmap_jobs_active", 0)
	expect("phonocmap_sweeps_active", 0)
	expect("phonocmap_sweeps_submitted_total", 0)
	atLeast("phonocmap_jobs_submitted_total", 2)
	// One real run of 200 evaluations; the replay must not re-count.
	expect("phonocmap_evals_finished_total", 200)
	expect("phonocmap_evals_total", 200)
	atLeast("phonocmap_uptime_seconds", 0)
	atLeast("phonocmap_evals_per_sec", 0)
	// No -cache-dir in this server: the store families are exposed but
	// read zero.
	expect("phonocmap_store_gets_total", 0)
	expect("phonocmap_store_hits_total", 0)
	expect("phonocmap_store_puts_total", 0)
	expect("phonocmap_store_errors_total", 0)
	expect("phonocmap_store_evictions_total", 0)
	expect("phonocmap_store_entries", 0)
	expect("phonocmap_store_bytes", 0)

	// Per-endpoint accounting: the first submission was accepted with
	// 202, the cache replay answered 200 on the same route, and the
	// bogus path landed in the unmatched bucket.
	expect(`phonocmap_http_requests_total{endpoint="POST /v1/jobs",code="202"}`, 1)
	expect(`phonocmap_http_requests_total{endpoint="POST /v1/jobs",code="200"}`, 1)
	atLeast(`phonocmap_http_requests_total{endpoint="unmatched",code="404"}`, 1)
	atLeast(`phonocmap_http_requests_total{endpoint="GET /v1/jobs/{id}",code="200"}`, 2)

	// The latency histogram carries the full bucket ladder per endpoint,
	// cumulative and capped by the +Inf bucket equal to _count.
	count := samples[`phonocmap_http_request_seconds_count{endpoint="POST /v1/jobs"}`]
	if count != 2 {
		t.Errorf("POST /v1/jobs latency count = %v, want 2", count)
	}
	inf := samples[`phonocmap_http_request_seconds_bucket{endpoint="POST /v1/jobs",le="+Inf"}`]
	if inf != count {
		t.Errorf("+Inf bucket %v != count %v", inf, count)
	}
	if _, ok := samples[`phonocmap_http_request_seconds_sum{endpoint="POST /v1/jobs"}`]; !ok {
		t.Error("latency histogram missing _sum series")
	}
	for series, v := range samples {
		if strings.HasPrefix(series, `phonocmap_http_request_seconds_bucket{endpoint="POST /v1/jobs"`) && v > count {
			t.Errorf("bucket %s = %v exceeds count %v", series, v, count)
		}
	}
}

// TestMetricsNetworkBuilds checks the network build, reuse and path
// table counters against what each job must do on a fresh server: a
// compile builds its network unless the server's network cache holds
// it, and the search builds the network's path table on its first
// evaluation unless an earlier job's did; each link cut or robustness
// sample builds a pair-restricted network and never a table; a cache
// replay builds nothing. The counters are process-wide, so this test must not run in
// parallel with others.
func TestMetricsNetworkBuilds(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	base := ts.URL
	type counts struct{ builds, seconds, reuses, tables, tableSeconds float64 }
	counters := func() counts {
		_, samples := scrapeMetrics(t, base)
		return counts{
			samples["phonocmap_network_builds_total"], samples["phonocmap_network_build_seconds_total"],
			samples["phonocmap_network_reuses_total"],
			samples["phonocmap_path_table_builds_total"], samples["phonocmap_path_table_build_seconds_total"],
		}
	}

	cuts := Request{Algorithm: "rs", Budget: 100, Seed: 1,
		Analyses: &scenario.AnalysesSpec{LinkFailures: &scenario.LinkFailuresSpec{}}}
	cuts.App.Builtin = "PIP"
	cuts.Arch.Router = "cygnus"
	samples := Request{Algorithm: "rs", Budget: 100, Seed: 1,
		Analyses: &scenario.AnalysesSpec{Robustness: &scenario.RobustnessSpec{Samples: 8}}}
	samples.App.Builtin = "MWD"
	fresh := samples
	fresh.Seed = 2

	for _, tc := range []struct {
		name                  string
		req                   Request
		builds, reuses, table float64
	}{
		{"link_failures on the 3x3 mesh: compile + 12 cuts", cuts, 13, 0, 1},
		{"robustness, 8 samples: compile + 8 samples", samples, 9, 0, 1},
		{"cached repeat", cuts, 0, 0, 0},
		{"fresh job on MWD's architecture: 8 samples, the network reused", fresh, 8, 1, 0},
	} {
		before := counters()
		var st JobStatus
		doJSON(t, http.MethodPost, base+"/v1/jobs", tc.req, &st)
		final, _ := pollUntil(t, base, st.ID, 60*time.Second, func(s JobStatus) bool { return s.State.Terminal() })
		if final.State != StateDone {
			t.Fatalf("%s: job finished %q (%s)", tc.name, final.State, final.Error)
		}
		after := counters()
		if got := after.builds - before.builds; got != tc.builds {
			t.Errorf("%s: %v builds, want %v", tc.name, got, tc.builds)
		}
		if grew := after.seconds > before.seconds; grew != (tc.builds > 0) {
			t.Errorf("%s: build seconds %v -> %v", tc.name, before.seconds, after.seconds)
		}
		if got := after.reuses - before.reuses; got != tc.reuses {
			t.Errorf("%s: %v network reuses, want %v", tc.name, got, tc.reuses)
		}
		if got := after.tables - before.tables; got != tc.table {
			t.Errorf("%s: %v path table builds, want %v", tc.name, got, tc.table)
		}
		if grew := after.tableSeconds > before.tableSeconds; grew != (tc.table > 0) {
			t.Errorf("%s: path table build seconds %v -> %v", tc.name, before.tableSeconds, after.tableSeconds)
		}
	}
}

// TestMetricsWithStore scrapes a server backed by a file store: the
// store families must reflect the persisted traffic, not read zero.
func TestMetricsWithStore(t *testing.T) {
	st, err := store.OpenFile(t.TempDir(), store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 2, Store: st})
	base := ts.URL

	req := Request{Objective: "snr", Algorithm: "rs", Budget: 200, Seed: 1}
	req.App.Builtin = "PIP"
	var submitted JobStatus
	doJSON(t, http.MethodPost, base+"/v1/jobs", req, &submitted)
	pollUntil(t, base, submitted.ID, 60*time.Second, func(s JobStatus) bool {
		return s.State.Terminal()
	})
	srv.cache.flush() // settle the write-behind before scraping

	_, samples := scrapeMetrics(t, base)
	if samples["phonocmap_store_puts_total"] != 1 {
		t.Errorf("store_puts_total = %v, want 1", samples["phonocmap_store_puts_total"])
	}
	if samples["phonocmap_store_entries"] != 1 {
		t.Errorf("store_entries = %v, want 1", samples["phonocmap_store_entries"])
	}
	if samples["phonocmap_store_bytes"] <= 0 {
		t.Errorf("store_bytes = %v, want > 0", samples["phonocmap_store_bytes"])
	}
	if samples["phonocmap_store_errors_total"] != 0 {
		t.Errorf("store_errors_total = %v, want 0", samples["phonocmap_store_errors_total"])
	}

	// GET /v1/cache mirrors the same truth as JSON.
	var cs CacheStats
	if code := doJSON(t, http.MethodGet, base+"/v1/cache", nil, &cs); code != http.StatusOK {
		t.Fatalf("GET /v1/cache returned %d", code)
	}
	if cs.Store == nil || cs.Store.Puts != 1 || cs.Store.Entries != 1 {
		t.Errorf("cache stats store section = %+v, want 1 put / 1 entry", cs.Store)
	}

	// DELETE /v1/cache empties both tiers.
	var cleared CacheClearResult
	if code := doJSON(t, http.MethodDelete, base+"/v1/cache", nil, &cleared); code != http.StatusOK {
		t.Fatalf("DELETE /v1/cache returned %d", code)
	}
	if cleared.ClearedEntries != 1 || cleared.ClearedStore != 1 {
		t.Errorf("clear result = %+v, want 1/1", cleared)
	}
	_, samples = scrapeMetrics(t, base)
	if samples["phonocmap_store_entries"] != 0 || samples["phonocmap_cache_entries"] != 0 {
		t.Error("tiers not empty after DELETE /v1/cache")
	}
}

// TestMetricsConcurrentScrape hammers /metrics while jobs run and other
// endpoints are probed — the scrape path must stay consistent under
// the race detector.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	base := ts.URL

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := Request{Objective: "snr", Algorithm: "rs", Budget: 100, Seed: int64(g + 1)}
			req.App.Builtin = "PIP"
			var st JobStatus
			doJSON(t, http.MethodPost, base+"/v1/jobs", req, &st)
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				scrapeMetrics(t, base)
				resp, err := http.Get(base + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	// After the dust settles the registry still serves a parseable,
	// complete exposition.
	types, _ := scrapeMetrics(t, base)
	for family := range metricFamilies {
		if _, ok := types[family]; !ok {
			t.Errorf("family %s missing after concurrent load", family)
		}
	}
}

// TestMetricsWorkerUtilization pins the utilization gauge's range: it
// must read 0 on an idle server and stay within [0, 1] while loaded.
func TestMetricsWorkerUtilization(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, samples := scrapeMetrics(t, ts.URL)
	if v := samples["phonocmap_worker_utilization"]; v != 0 {
		t.Errorf("idle utilization = %v, want 0", v)
	}
	if v := samples["phonocmap_workers_busy"]; v != 0 {
		t.Errorf("idle workers_busy = %v, want 0", v)
	}
	if v, ok := samples["phonocmap_queue_depth"]; !ok || v != 0 {
		t.Errorf("idle queue_depth = %v (present %t), want 0", v, ok)
	}
}
