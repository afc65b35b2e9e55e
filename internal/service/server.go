package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
	"phonocmap/internal/search"
	"phonocmap/internal/store"
	"phonocmap/internal/sweep"
	"phonocmap/internal/version"
)

// Config sizes the service.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueSize bounds the number of jobs waiting for a worker (default
	// 64). Submissions beyond it are rejected with 503.
	QueueSize int
	// EvalWorkers is the per-run batch-evaluation worker count applied
	// process-wide (default 1, i.e. sequential evaluation). It trades
	// intra-run parallelism against the Workers pool's inter-job
	// parallelism without changing any result: evaluation worker count
	// is bit-identity-preserving, so cached and remote results stay
	// byte-identical whatever the setting.
	EvalWorkers int
	// CacheSize bounds the result cache entries (default 256; negative
	// disables the in-memory tier — with a Store attached the cache then
	// runs disk-only: results persist and replay, nothing stays resident).
	CacheSize int
	// Store is the persistent result store behind the in-memory cache
	// (read-through on miss, write-behind on completion, warmed at boot).
	// Nil means memory-only. The server takes ownership: Shutdown drains
	// pending writes and closes it.
	Store store.Store
	// MaxJobs bounds the job registry; the oldest finished jobs are
	// evicted past it (default 1024).
	MaxJobs int
	// MaxBudget caps a single request's per-seed evaluation budget
	// (default 5,000,000).
	MaxBudget int
	// MaxSeeds caps a request's island count (default 64).
	MaxSeeds int
	// MaxSweepCells caps the grid size of a single sweep request
	// (default 1024). Every cell is bounded by MaxBudget/MaxSeeds like an
	// individual job.
	MaxSweepCells int
	// MaxSweeps bounds the sweep registry; the oldest finished sweeps are
	// evicted past it (default 128).
	MaxSweeps int
	// Logger receives the service's structured logs: the request access
	// log (debug), job and sweep lifecycle with their IDs (info), and
	// worker-pool events (debug). Nil discards everything.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.EvalWorkers <= 0 {
		c.EvalWorkers = 1
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 5_000_000
	}
	if c.MaxSeeds <= 0 {
		c.MaxSeeds = 64
	}
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = 1024
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = 128
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the phonocmap-serve service: an HTTP API over a bounded job
// queue, a worker pool of optimization runners, a result cache, and a
// network cache its compiles share.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	handler http.Handler // mux wrapped with the telemetry middleware
	queue   chan *Job
	cache   *resultCache
	// nets shares networks between the jobs and sweep cells this server
	// compiles (see scenario.NetworkCacheBytes).
	nets   *scenario.NetworkCache
	logger *slog.Logger

	// metrics is the single source of runtime truth: /metrics renders
	// its registry and /healthz reads the same instruments.
	metrics *serverMetrics

	baseCtx context.Context
	stop    context.CancelFunc
	workers sync.WaitGroup

	nextID    atomic.Uint64
	nextSweep atomic.Uint64
	closed    atomic.Bool

	started time.Time

	jobs   *registry[*Job]
	sweeps *registry[*Sweep]
}

// New builds a server and starts its worker pool. Call Shutdown to stop
// it; Handler exposes the HTTP API (ListenAndServe binds it to
// cfg.Addr).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		queue:   make(chan *Job, cfg.QueueSize),
		cache:   newResultCache(cfg.CacheSize, cfg.Store),
		nets:    scenario.NewNetworkCache(scenario.NetworkCacheBytes),
		logger:  cfg.Logger,
		baseCtx: ctx,
		stop:    cancel,
		jobs:    newRegistry[*Job](cfg.MaxJobs),
		sweeps:  newRegistry[*Sweep](cfg.MaxSweeps),
		started: time.Now(),
	}
	core.SetDefaultEvalWorkers(cfg.EvalWorkers)
	s.initMetrics()
	s.routes()
	s.handler = s.instrument(s.mux)
	// Boot-time cache warming: preload the most recently persisted
	// results into the LRU (bounded concurrency; decode dominates) so a
	// restarted node's hottest keys hit memory from the first request.
	// Read-through would answer them from disk anyway — warming only
	// moves that cost from the first requests to boot.
	if warmed := s.cache.warm(ctx, cfg.CacheSize, cfg.Workers); warmed > 0 {
		s.logger.Info("result cache warmed from store", "entries", warmed)
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.logger.Info("server started",
		"workers", cfg.Workers, "queue_size", cfg.QueueSize, "cache_size", cfg.CacheSize,
		"eval_workers", cfg.EvalWorkers, "persistent_store", cfg.Store != nil)
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleSweepResult)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	s.mux.HandleFunc("GET /v1/cache", s.handleCacheStats)
	s.mux.HandleFunc("DELETE /v1/cache", s.handleCacheClear)
	s.mux.HandleFunc("GET /v1/apps", s.handleApps)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /v1/routers", s.handleRouters)
	s.mux.HandleFunc("GET /v1/topologies", s.handleTopologies)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// Handler returns the HTTP API, wrapped with the telemetry middleware
// (per-endpoint request counters, latency histograms, access log).
func (s *Server) Handler() http.Handler { return s.handler }

// Config returns the effective configuration (defaults resolved).
func (s *Server) Config() Config { return s.cfg }

// ListenAndServe binds the API to cfg.Addr and serves until ctx is done,
// then shuts the HTTP listener and the worker pool down gracefully
// (running jobs are cancelled through context propagation).
func (s *Server) ListenAndServe(ctx context.Context) error {
	hs := &http.Server{
		Addr:    s.cfg.Addr,
		Handler: s.handler,
		// A public long-lived service must bound slow/idle connections or
		// a slowloris-style client exhausts file descriptors.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		s.Shutdown(context.Background())
		return err
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Cancel the jobs BEFORE draining the listener: SSE event streams
		// stay open for the life of their job, so draining first would
		// wait out the whole timeout whenever a stream is watching a
		// running job (http.Server.Shutdown does not cancel request
		// contexts). Cancellation closes every job's Done channel, the
		// streams emit their terminal snapshot and exit, and the drain
		// below completes promptly.
		err := s.Shutdown(shCtx)
		if herr := hs.Shutdown(shCtx); err == nil {
			err = herr
		}
		return err
	}
}

// Shutdown stops accepting jobs, cancels every queued and running job,
// and waits for the workers to drain (bounded by ctx).
func (s *Server) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	s.stop() // cancels baseCtx -> every job context
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Flush anything still sitting in the queue (workers exited without
	// draining it) to a terminal state so pollers see "cancelled".
	for {
		select {
		case j := <-s.queue:
			j.Cancel()
		default:
			// Drain the write-behind backlog and close the persistent
			// store: everything the workers completed is durable before
			// Shutdown returns, so a restarted node with the same cache
			// directory replays all of it.
			s.cache.close()
			return err
		}
	}
}

// worker executes jobs from the queue until shutdown.
func (s *Server) worker() {
	defer s.workers.Done()
	defer s.logger.Debug("worker stopped")
	s.logger.Debug("worker started")
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.metrics.workersBusy.Add(1)
			s.runJob(j)
			s.metrics.workersBusy.Add(-1)
		}
	}
}

// runJob executes one dequeued job through the scenario executor, with
// the job's tracer feeding live progress to status readers.
func (s *Server) runJob(j *Job) {
	tracer, ok := j.markRunning()
	if !ok {
		return // cancelled while queued
	}
	defer j.cancel() // release the job context resources
	// Fold the job's evaluations into the lifetime throughput counter
	// once it settles (all exit paths below reach a terminal state).
	defer func() { s.metrics.evalsDone.Add(int64(j.foldEvals())) }()
	defer func() {
		st := j.status()
		s.logger.Info("job finished",
			"job", j.id, "state", st.State, "evals", st.Evals, "error", st.Error)
	}()
	s.logger.Debug("job started", "job", j.id, "algorithm", j.spec.Algorithm, "budget", j.spec.Budget)

	out, err := j.comp.Execute(j.ctx, tracer)
	switch {
	case errors.Is(err, context.Canceled):
		// Cancelled before the first evaluation: nothing to report.
		j.finish(StateCancelled, nil, err)
	case err != nil:
		// A failed search, or an analysis that could not run after the
		// optimization spent its budget: a failed job, not a silent
		// success with a missing report.
		j.finish(StateFailed, nil, err)
	default:
		e := &store.Entry{
			Key:         j.key,
			Result:      out.Run,
			Trace:       out.Events,
			IslandEvals: out.IslandEvals,
			Report:      out.Report,
		}
		if out.Run.Cancelled {
			// Truncated by cancellation (Run.Cancelled is false for runs
			// that spent their whole budget even if the cancel landed
			// late, so complete results are never mislabelled or lost
			// from the cache). The partial result carries no report and
			// is never cached.
			j.finish(StateCancelled, e, nil)
			return
		}
		// Cache the result before publishing the job as done, so a
		// client that sees it done and submits the spec again hits the
		// cache.
		if !j.noCache {
			s.cache.put(*e)
		}
		j.finish(StateDone, e, nil)
	}
}

// register stores a job in the registry and counts it as submitted.
func (s *Server) register(j *Job) {
	s.metrics.jobsSubmitted.Inc()
	s.jobs.add(j.id, j)
}

// newJobID mints the next job identifier.
func (s *Server) newJobID() string {
	return fmt.Sprintf("job-%06d", s.nextID.Add(1))
}

// limits are the per-job limits every job and sweep cell is checked
// against.
func (s *Server) limits() Limits {
	return Limits{MaxBudget: s.cfg.MaxBudget, MaxSeeds: s.cfg.MaxSeeds}
}

// admit turns a normalized spec into a job, the one admission path of
// submitted jobs and sweep cells: a replay of the cached result (unless
// noCache), or a fresh job whose scenario is compiled through the
// server's network cache. It neither registers nor queues the job. When
// the compile fails, the job comes back failed along with the error, for
// the caller's policy.
func (s *Server) admit(spec Spec, key string, noCache bool, parent context.Context) (*Job, error) {
	id := s.newJobID()
	if !noCache {
		if e, ok := s.cache.get(key); ok {
			return newCachedJob(id, spec, e), nil
		}
	}
	comp, err := s.nets.Compile(spec)
	j := newJob(id, spec, key, comp, noCache, parent)
	if err != nil {
		j.finish(StateFailed, nil, err)
		j.cancel() // it never runs; release the context registered on parent
	}
	return j, err
}

// --- HTTP handlers ---

// maxRequestBytes bounds submit payloads: generous for any legitimate
// custom app graph or sweep grid, small enough that a flood of oversized
// bodies cannot balloon decoder memory.
const maxRequestBytes = 4 << 20

// writeJSON is the service's single response writer; writeError layers
// the structured error envelope on top of it.
//
// It encodes before it writes the status, so a value that cannot be
// encoded is answered with the internal envelope, never with a 2xx status
// and an empty body.
//
//phonocmap:envelope
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = CodeInternal.httpStatus()
		b, _ = json.MarshalIndent(ErrorEnvelope{Error: ErrorDetail{
			Code:    CodeInternal,
			Message: "encoding the response: " + err.Error(),
		}}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n'))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeError(w, CodeShuttingDown, "server is shutting down", nil)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		writeError(w, CodeInvalidRequest, fmt.Sprintf("bad request body: %v", err), nil)
		return
	}
	spec, err := normalize(req, s.limits())
	if err != nil {
		writeError(w, CodeInvalidSpec, err.Error(), nil)
		return
	}
	// A cache miss pays for the problem construction (and gets the Eq. 2
	// fit check) here, before the job is committed to the queue.
	j, err := s.admit(spec, spec.Key(), req.NoCache, s.baseCtx)
	if err != nil {
		writeError(w, CodeInvalidSpec, err.Error(), nil)
		return
	}
	// The answer is snapshot before the send: a replay is done, and a
	// fresh job is queued until a worker takes it, which may happen
	// before this handler writes.
	st := j.status()
	if st.State.Terminal() {
		s.register(j)
		s.logger.Info("job replayed from cache", "job", j.id)
		writeJSON(w, http.StatusOK, st)
		return
	}

	select {
	case s.queue <- j:
		// Re-check after the enqueue: a Shutdown that began between the
		// closed check above and this send may already have drained the
		// queue and stopped the workers, which would strand the job in
		// "queued" forever. Cancelling here guarantees it reaches a
		// terminal state either way.
		if s.closed.Load() {
			j.Cancel()
			st = j.status()
		}
		s.register(j)
		s.logger.Info("job accepted",
			"job", j.id, "algorithm", spec.Algorithm, "budget", spec.Budget, "seeds", spec.Seeds)
		writeJSON(w, http.StatusAccepted, st)
	default:
		j.cancel() // release the context registered on baseCtx
		writeError(w, CodeQueueFull,
			fmt.Sprintf("job queue full (%d pending); retry later", s.cfg.QueueSize),
			map[string]any{"queue_capacity": s.cfg.QueueSize})
	}
}

// listQuery is the shared ?status= / ?limit= filter of the list
// endpoints: status restricts to one lifecycle state, limit caps the
// response to the most recent N matching entries (0 = uncapped), so
// clients polling a busy instance need not page the entire registry.
type listQuery struct {
	status State
	limit  int
}

// parseListQuery validates the filter query parameters.
func parseListQuery(r *http.Request) (listQuery, error) {
	q := r.URL.Query()
	var lq listQuery
	if s := q.Get("status"); s != "" {
		st := State(s)
		switch st {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
			lq.status = st
		default:
			return listQuery{}, fmt.Errorf("unknown status %q", s)
		}
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			return listQuery{}, fmt.Errorf("bad limit %q (want a non-negative integer)", l)
		}
		lq.limit = n
	}
	return lq, nil
}

// tail keeps the most recent n entries of an insertion-ordered slice
// (n = 0 means all).
func tail[T any](s []T, n int) []T {
	if n > 0 && len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	lq, err := parseListQuery(r)
	if err != nil {
		writeError(w, CodeInvalidRequest, err.Error(), nil)
		return
	}
	jobs := s.jobs.all()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		if lq.status != "" && st.State != lq.status {
			continue
		}
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, tail(out, lq.limit))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "unknown job", nil)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "unknown job", nil)
		return
	}
	res, state, ok := j.snapshotResult()
	if !ok {
		if state.Terminal() {
			// failed, or cancelled before any evaluation
			st := j.status()
			msg := st.Error
			if msg == "" {
				msg = fmt.Sprintf("job %s without a result", state)
			}
			writeError(w, CodeNoResult, msg, map[string]any{"state": state})
			return
		}
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "unknown job", nil)
		return
	}
	state, trace := j.snapshotTrace()
	writeJSON(w, http.StatusOK, JobTrace{ID: j.id, State: state, Trace: trace})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "unknown job", nil)
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeError(w, CodeShuttingDown, "server is shutting down", nil)
		return
	}
	// Bound live sweeps before decoding: MaxSweeps only evicts finished
	// sweeps from the registry, so without this gate a flood of
	// submissions would accumulate unbounded in-flight work — the sweep
	// analogue of the job queue's shedding on saturation.
	if active := s.sweeps.active(); active >= s.cfg.MaxSweeps {
		writeError(w, CodeQueueFull,
			fmt.Sprintf("%d sweeps in flight (limit %d); retry later", active, s.cfg.MaxSweeps),
			map[string]any{"max_sweeps": s.cfg.MaxSweeps})
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, CodeInvalidRequest, fmt.Sprintf("bad request body: %v", err), nil)
		return
	}
	// Size() saturates instead of overflowing, so adversarially long
	// dimension lists cannot wrap the product past this check.
	if size := req.Size(); size > s.cfg.MaxSweepCells {
		writeError(w, CodeInvalidSpec,
			fmt.Sprintf("service: sweep expands to %d cells, limit %d", size, s.cfg.MaxSweepCells),
			map[string]any{"cells": size, "max_sweep_cells": s.cfg.MaxSweepCells})
		return
	}
	cells, err := sweep.Expand(req.Spec)
	if err != nil {
		writeError(w, CodeInvalidSpec, err.Error(), nil)
		return
	}
	// Expand normalized every cell through the scenario compiler, so each
	// cell's scenario is a normalized job spec: check the whole grid
	// against the per-job limits before any cell runs.
	scs := make([]sweepCell, 0, len(cells))
	lim := s.limits()
	for _, c := range cells {
		spec := c.Scenario()
		if err := lim.check(spec); err != nil {
			writeError(w, CodeInvalidSpec, fmt.Sprintf("cell %s: %v", c.Label(), err),
				map[string]any{"cell": c.Label()})
			return
		}
		scs = append(scs, sweepCell{cell: c, spec: spec, key: spec.Key()})
	}

	id := fmt.Sprintf("sweep-%06d", s.nextSweep.Add(1))
	sw := newSweep(id, scs, req.NoCache, s.baseCtx)
	s.metrics.sweepsSubmitted.Inc()
	s.sweeps.add(id, sw)
	s.logger.Info("sweep accepted", "sweep", id, "cells", len(scs))
	go s.runSweep(sw)
	writeJSON(w, http.StatusAccepted, sw.status(true))
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	lq, err := parseListQuery(r)
	if err != nil {
		writeError(w, CodeInvalidRequest, err.Error(), nil)
		return
	}
	sweeps := s.sweeps.all()
	out := make([]SweepStatus, 0, len(sweeps))
	for _, sw := range sweeps {
		st := sw.status(false)
		if lq.status != "" && st.State != lq.status {
			continue
		}
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, tail(out, lq.limit))
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.get(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "unknown sweep", nil)
		return
	}
	writeJSON(w, http.StatusOK, sw.status(true))
}

func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.get(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "unknown sweep", nil)
		return
	}
	if !sw.currentState().Terminal() {
		writeJSON(w, http.StatusAccepted, sw.status(true))
		return
	}
	writeJSON(w, http.StatusOK, sw.result())
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.get(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "unknown sweep", nil)
		return
	}
	sw.Cancel()
	writeJSON(w, http.StatusOK, sw.status(true))
}

// handleCacheStats serves GET /v1/cache: both cache tiers' live
// statistics — the admin view of hit rates, the write-behind backlog and
// the persistent store's size.
func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.stats())
}

// CacheClearResult is the DELETE /v1/cache payload: how many entries
// each tier dropped.
type CacheClearResult struct {
	ClearedEntries int `json:"cleared_entries"`
	ClearedStore   int `json:"cleared_store_entries"`
}

// handleCacheClear serves DELETE /v1/cache: empty both tiers. The
// results themselves are deterministic in their specs, so clearing is
// always safe — subsequent submissions recompute (and re-persist).
func (s *Server) handleCacheClear(w http.ResponseWriter, _ *http.Request) {
	memory, persisted := s.cache.clear()
	s.logger.Info("result cache cleared", "memory_entries", memory, "store_entries", persisted)
	writeJSON(w, http.StatusOK, CacheClearResult{ClearedEntries: memory, ClearedStore: persisted})
}

func (s *Server) handleApps(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, scenario.Apps())
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, search.Names())
}

func (s *Server) handleRouters(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, scenario.Routers())
}

func (s *Server) handleTopologies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, Topologies())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// One source of truth with /metrics: the folded obs counter is read
	// BEFORE scanning the jobs (inside totalEvalsNow), so a job folding
	// mid-scan is a transient undercount, never a double count.
	total := s.totalEvalsNow()
	counts := make(map[State]int)
	for _, j := range s.jobs.all() {
		counts[j.currentState()]++
	}
	status := "ok"
	if s.closed.Load() {
		status = "shutting down"
	}
	uptime := time.Since(s.started).Seconds()
	perSec := s.evalsPerSec(total)
	busy := int(s.metrics.workersBusy.Value())
	writeJSON(w, http.StatusOK, Health{
		Status:            status,
		Version:           version.String(),
		Workers:           s.cfg.Workers,
		WorkersBusy:       busy,
		WorkerUtilization: float64(busy) / float64(s.cfg.Workers),
		QueueDepth:        len(s.queue),
		QueueCapacity:     s.cfg.QueueSize,
		Jobs:              counts,
		Cache:             s.cache.stats(),
		TotalEvals:        total,
		EvalsPerSec:       perSec,
		UptimeSec:         uptime,
	})
}
