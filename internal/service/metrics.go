package service

import (
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"time"

	"phonocmap/internal/analysis"
	"phonocmap/internal/core"
	"phonocmap/internal/network"
	"phonocmap/internal/obs"
	"phonocmap/internal/scenario"
	"phonocmap/internal/store"
)

// serverMetrics holds the service's directly-updated instruments; the
// callback-backed gauges (queue depth, utilization, active jobs) are
// registered in initMetrics and read live server state on scrape.
type serverMetrics struct {
	reg *obs.Registry

	requests *obs.CounterVec   // phonocmap_http_requests_total{endpoint,code}
	latency  *obs.HistogramVec // phonocmap_http_request_seconds{endpoint}

	// evalsDone counts the evaluations of finished (terminal) jobs;
	// in-flight evaluations are summed from the live jobs on demand.
	// Cache hits replay results without evaluating and are not counted.
	evalsDone       *obs.Counter
	workersBusy     *obs.Gauge
	jobsSubmitted   *obs.Counter
	sweepsSubmitted *obs.Counter
}

// initMetrics builds the registry and binds every metric family. Called
// once from New, after the server's pools exist and before any request
// can arrive.
func (s *Server) initMetrics() {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("phonocmap_http_requests_total",
			"HTTP requests served, by route pattern and status code.",
			"endpoint", "code"),
		latency: reg.HistogramVec("phonocmap_http_request_seconds",
			"HTTP request latency in seconds, by route pattern.",
			obs.DefBuckets, "endpoint"),
		evalsDone: reg.Counter("phonocmap_evals_finished_total",
			"Mapping evaluations of finished jobs (in-flight progress is in phonocmap_evals_total)."),
		workersBusy: reg.Gauge("phonocmap_workers_busy",
			"Workers currently executing a job."),
		jobsSubmitted: reg.Counter("phonocmap_jobs_submitted_total",
			"Jobs registered (direct submissions, sweep cells and cache replays)."),
		sweepsSubmitted: reg.Counter("phonocmap_sweeps_submitted_total",
			"Design-space sweeps accepted."),
	}
	s.metrics = m

	reg.CounterFn("phonocmap_evals_total",
		"Mapping evaluations performed since start (finished jobs plus in-flight progress; cache replays do not count).",
		func() float64 { return float64(s.totalEvalsNow()) })
	reg.GaugeFn("phonocmap_evals_per_sec",
		"Lifetime average evaluation throughput — the effective search capacity under the equal-budget protocol.",
		func() float64 { return s.evalsPerSec(s.totalEvalsNow()) })
	reg.GaugeFn("phonocmap_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFn("phonocmap_queue_depth",
		"Jobs waiting for a worker.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFn("phonocmap_queue_capacity",
		"Job queue capacity; submissions beyond it are rejected with 503.",
		func() float64 { return float64(s.cfg.QueueSize) })
	reg.GaugeFn("phonocmap_workers",
		"Worker pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFn("phonocmap_eval_workers",
		"Per-run batch-evaluation worker count (results are identical at any setting; only throughput changes).",
		func() float64 { return float64(core.DefaultEvalWorkers()) })
	reg.CounterFn("phonocmap_batch_evals_total",
		"Mapping evaluations committed through the batch evaluation path.",
		func() float64 { return float64(core.BatchEvalsTotal()) })
	reg.CounterFn("phonocmap_network_builds_total",
		"Photonic networks built (scenario compiles, robustness samples, link cuts), process-wide.",
		func() float64 { return float64(network.BuildsTotal()) })
	reg.CounterFn("phonocmap_network_build_seconds_total",
		"Wall time spent building photonic networks, process-wide.",
		network.BuildSecondsTotal)
	reg.CounterFn("phonocmap_network_reuses_total",
		"Compiles served a network from a network cache (a sweep's or the service's) instead of building one, process-wide.",
		func() float64 { return float64(scenario.NetworkReusesTotal()) })
	reg.CounterFn("phonocmap_path_table_builds_total",
		"Path-pair tables built for the networks problems score from, process-wide.",
		func() float64 { return float64(analysis.TableBuildsTotal()) })
	reg.CounterFn("phonocmap_path_table_build_seconds_total",
		"Wall time spent building path-pair tables, process-wide.",
		analysis.TableBuildSecondsTotal)
	reg.GaugeFn("phonocmap_worker_utilization",
		"Fraction of the worker pool currently executing jobs (0..1).",
		func() float64 { return m.workersBusy.Value() / float64(s.cfg.Workers) })
	reg.GaugeFn("phonocmap_jobs_active",
		"Registered jobs not yet in a terminal state.",
		func() float64 { return float64(s.activeJobs()) })
	reg.GaugeFn("phonocmap_sweeps_active",
		"Registered sweeps not yet in a terminal state.",
		func() float64 { return float64(s.activeSweeps()) })
	reg.CounterFn("phonocmap_cache_hits_total",
		"Result-cache hits.",
		func() float64 { return float64(s.cache.hits.Value()) })
	reg.CounterFn("phonocmap_cache_misses_total",
		"Result-cache misses.",
		func() float64 { return float64(s.cache.misses.Value()) })
	reg.CounterFn("phonocmap_cache_evictions_total",
		"Result-cache LRU evictions.",
		func() float64 { return float64(s.cache.evictions.Value()) })
	reg.GaugeFn("phonocmap_cache_entries",
		"Result-cache entries currently held.",
		func() float64 { return float64(s.cache.size()) })
	// Persistent store tier. Always registered so the exposition shape is
	// stable: without -cache-dir every family reads zero.
	reg.CounterFn("phonocmap_store_gets_total",
		"Persistent-store lookups (LRU misses read through, warming loads count too).",
		func() float64 { return float64(s.cache.storeGets.Value()) })
	reg.CounterFn("phonocmap_store_hits_total",
		"Persistent-store lookups that found an entry.",
		func() float64 { return float64(s.cache.storeHits.Value()) })
	reg.CounterFn("phonocmap_store_puts_total",
		"Results persisted to the store (completed write-behind writes).",
		func() float64 { return float64(s.cache.storePuts.Value()) })
	reg.CounterFn("phonocmap_store_errors_total",
		"Persistent-store operations that failed (I/O errors, quarantined corrupt entries).",
		func() float64 { return float64(s.cache.storeErrors.Value()) })
	reg.CounterFn("phonocmap_store_evictions_total",
		"Entries the store evicted to stay under its size cap.",
		func() float64 {
			if sr, ok := s.cache.store.(store.StatReader); ok {
				return float64(sr.Stats().Evictions)
			}
			return 0
		})
	reg.GaugeFn("phonocmap_store_entries",
		"Entries currently persisted in the store.",
		func() float64 { return float64(s.cache.store.Len()) })
	reg.GaugeFn("phonocmap_store_bytes",
		"Total bytes the persisted entries occupy on disk.",
		func() float64 {
			if sr, ok := s.cache.store.(store.StatReader); ok {
				return float64(sr.Stats().Bytes)
			}
			return 0
		})
}

// MetricsRegistry exposes the server's metric registry so co-located
// components (a fleet coordinator embedding a node in-process, extra
// collectors in the serve binary) can register additional families onto
// the same /metrics exposition.
func (s *Server) MetricsRegistry() *obs.Registry { return s.metrics.reg }

// totalEvalsNow is the single evaluation-count truth /healthz and
// /metrics share: evaluations folded from finished jobs plus the live
// jobs' in-flight progress. The folded counter is read BEFORE the scan:
// a job folding mid-scan is then skipped by unfoldedEvals and not yet in
// done — a transient undercount, never a double count.
func (s *Server) totalEvalsNow() int64 {
	done := s.metrics.evalsDone.Value()
	s.mu.Lock()
	unfolded := int64(0)
	for _, j := range s.jobs {
		unfolded += int64(j.unfoldedEvals())
	}
	s.mu.Unlock()
	return done + unfolded
}

// evalsPerSec is the lifetime average throughput for a given total.
// The denominator is clamped to one second: right after startup the
// true uptime is near zero and a plain division would report an absurd
// throughput spike (a fast cached burst could read as millions of
// evals/sec), which poisons dashboards and autoscaling signals.
func (s *Server) evalsPerSec(total int64) float64 {
	return float64(total) / math.Max(time.Since(s.started).Seconds(), 1)
}

// activeJobs counts registered jobs not yet in a terminal state.
func (s *Server) activeJobs() int {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	active := 0
	for _, j := range jobs {
		if !j.currentState().Terminal() {
			active++
		}
	}
	return active
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.metrics.reg.WritePrometheus(w)
}

// statusWriter captures the response status for request accounting. It
// forwards Flush so the SSE event stream keeps streaming through the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps the API mux with per-endpoint request counting,
// latency histograms and the access log. The endpoint label is the
// mux's route pattern — bounded cardinality no matter what paths
// clients probe.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		// The mux sets r.Pattern only on the clone it hands the handler;
		// matching again here is cheap and race-free.
		_, pattern := s.mux.Handler(r)
		if pattern == "" {
			pattern = "unmatched"
		}
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.metrics.requests.With(pattern, strconv.Itoa(code)).Inc()
		s.metrics.latency.With(pattern).Observe(elapsed.Seconds())
		s.logger.LogAttrs(r.Context(), slog.LevelDebug, "http request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", pattern),
			slog.Int("status", code),
			slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
		)
	})
}
