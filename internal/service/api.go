// Package service implements phonocmap-serve: a long-lived HTTP JSON
// service that accepts mapping-DSE jobs, executes them on a bounded
// worker pool with per-job cancellation, and caches results so duplicate
// submissions are answered instantly.
//
// Endpoints:
//
//	POST   /v1/jobs            submit a job (Request) -> JobStatus
//	GET    /v1/jobs            list known jobs        -> []JobStatus
//	GET    /v1/jobs/{id}        job status             -> JobStatus
//	GET    /v1/jobs/{id}/result finished result        -> JobResult
//	GET    /v1/jobs/{id}/trace  convergence trace      -> JobTrace
//	GET    /v1/jobs/{id}/events live progress (SSE)    -> "status" events, each a JobStatus
//	DELETE /v1/jobs/{id}        cancel                 -> JobStatus
//	POST   /v1/sweeps          submit a design-space sweep (SweepRequest) -> SweepStatus
//	GET    /v1/sweeps          list known sweeps      -> []SweepStatus
//	GET    /v1/sweeps/{id}        live per-cell progress -> SweepStatus
//	GET    /v1/sweeps/{id}/result aggregated results     -> SweepResult
//	DELETE /v1/sweeps/{id}        cancel                 -> SweepStatus
//	GET    /v1/apps            bundled applications   -> []scenario.AppInfo
//	GET    /v1/algorithms      available algorithms   -> []string
//	GET    /v1/routers         built-in optical routers -> []scenario.RouterInfo
//	GET    /v1/topologies      built-in topology kinds  -> []string
//	GET    /v1/cache           cache + store statistics -> CacheStats
//	DELETE /v1/cache           empty both cache tiers   -> CacheClearResult
//	GET    /healthz            liveness + pool stats  -> Health
//
// The list endpoints accept ?status=<state> and ?limit=<n> filters
// (limit keeps the most recent n matching entries). Every non-2xx
// response is the structured error envelope ErrorEnvelope —
// {"error": {"code", "message", "details"}} — with a machine-readable
// ErrorCode, so clients branch on codes instead of parsing prose.
//
// A sweep expands a grid (apps x architectures x objectives x
// algorithms x budgets x seeds) into cells; every cell is exactly one
// job spec, executed on the same worker pool and answered from the same
// content-addressed result cache as individually submitted jobs.
package service

import (
	"fmt"

	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
	"phonocmap/internal/topo"
)

// Request is the POST /v1/jobs payload: a scenario spec and the
// service's cache switch. App is required; everything else defaults
// like the CLI: smallest square mesh of Crux routers with XY routing,
// SNR objective, R-PBLA, budget 20000, seed 1, single seed. Seeds > 1
// runs that many independent seeded searches and the best wins; the
// analyses block selects post-optimization analyses whose typed report
// comes back in JobResult, and is part of the job's cache identity.
type Request struct {
	Spec
	// NoCache skips the result cache on both lookup and fill.
	NoCache bool `json:"no_cache,omitempty"`
}

// Spec is a fully normalized request: every default resolved, so equal
// Specs describe identical computations. It is the scenario compiler's
// spec — the same declarative shape (and the same canonical-JSON content
// address, Key) every other front end uses. The analyses block is part
// of the key, so two jobs differing only in requested analyses never
// alias to one cache entry.
type Spec = scenario.Spec

// Limits bounds what a single request may ask for.
type Limits struct {
	MaxBudget int
	MaxSeeds  int
}

// normalize resolves every default through the scenario compiler — the
// single normalization path shared with the CLI and the sweep engine, so
// the fronts cannot drift apart — and validates the result against the
// service's limits. Only the application graph is built here (cheap);
// the expensive network/problem construction is deferred to compile so
// cache hits skip it entirely.
func normalize(req Request, lim Limits) (Spec, error) {
	spec := req.Spec
	if _, err := spec.Normalize(); err != nil {
		return Spec{}, err
	}
	if err := lim.check(spec); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// maxTiles caps the architecture a request may build. A network's
// memory grows about as tiles^2.5 (Crux routers, XY routing, measured
// on an Intel Xeon): a 4×4 mesh takes 0.3 MB, 6×6 2.7 MB, 8×8 11.8 MB
// in 22 ms, 9×9 21.5 MB, 10×10 36.7 MB and 12×12 92.3 MB, so a 32×32
// mesh would take more than 10 GB. Rings grow faster: a 64-tile ring of
// Cygnus routers with BFS routing takes 36.3 MB. The cap admits the
// largest architecture any workload, test or example uses, perfbench
// dense's 8×8 mesh.
const maxTiles = 64

// check validates a normalized spec — a job's, or a sweep cell's, which
// sweep.Expand normalized already — against the limits and the tile
// cap, before anything is compiled.
func (lim Limits) check(spec Spec) error {
	if spec.Budget < 0 || (lim.MaxBudget > 0 && spec.Budget > lim.MaxBudget) {
		return fmt.Errorf("service: budget %d out of range (1..%d)", spec.Budget, lim.MaxBudget)
	}
	if spec.Seeds < 0 || (lim.MaxSeeds > 0 && spec.Seeds > lim.MaxSeeds) {
		return fmt.Errorf("service: seeds %d out of range (1..%d)", spec.Seeds, lim.MaxSeeds)
	}
	if tiles := spec.Arch.NumTiles(); tiles > maxTiles {
		return fmt.Errorf("service: %s architecture has %d tiles, limit %d", spec.Arch.Topology, tiles, maxTiles)
	}
	return nil
}

// JobStatus is the wire representation of a job's lifecycle state.
type JobStatus struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Cached    bool   `json:"cached,omitempty"`
	Spec      Spec   `json:"spec"`
	Submitted string `json:"submitted,omitempty"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	Evals     int    `json:"evals"`
	// IslandEvals is the per-island evaluation breakdown (one entry per
	// seed). Cache hits replay the live run's breakdown verbatim, so the
	// status shape is identical across hit and miss.
	IslandEvals []int       `json:"island_evals,omitempty"`
	Budget      int         `json:"budget"` // total across islands
	Best        *core.Score `json:"best,omitempty"`
	Error       string      `json:"error,omitempty"`
}

// JobResult is the GET /v1/jobs/{id}/result payload of a finished job.
type JobResult struct {
	ID         string       `json:"id"`
	State      State        `json:"state"`
	Cached     bool         `json:"cached,omitempty"`
	Algorithm  string       `json:"algorithm"`
	Objective  string       `json:"objective"`
	Mapping    core.Mapping `json:"mapping"`
	Score      core.Score   `json:"score"`
	Evals      int          `json:"evals"`
	DurationMs float64      `json:"duration_ms"`
	Seed       int64        `json:"seed"`
	Cancelled  bool         `json:"cancelled,omitempty"`
	// Report is the post-optimization analysis report of the winning
	// mapping, present when the job's spec requested analyses. Cache hits
	// replay the live run's report verbatim.
	Report *scenario.Report `json:"report,omitempty"`
	// Trace is the run's span record: improvement timeline, per-island
	// spans, time-to-best. Cache hits replay the live run's trace
	// verbatim, wall-clock fields included.
	Trace *scenario.RunTrace `json:"trace,omitempty"`
}

// TraceEvent is one incumbent improvement of one island — the scenario
// layer's event, shared with the local runner so traces cannot drift
// between backends.
type TraceEvent = scenario.TraceEvent

// JobTrace is the GET /v1/jobs/{id}/trace payload.
type JobTrace struct {
	ID    string       `json:"id"`
	State State        `json:"state"`
	Trace []TraceEvent `json:"trace"`
}

// Topologies lists the built-in topology kinds for GET /v1/topologies.
func Topologies() []string { return topo.Kinds() }

// Health is the /healthz payload.
type Health struct {
	Status string `json:"status"`
	// Version is the build's version string (module version, VCS
	// revision, or "devel"), so fleet dashboards can tell instances
	// apart.
	Version string `json:"version"`
	Workers int    `json:"workers"`
	// WorkersBusy and WorkerUtilization expose live execution load so a
	// fleet coordinator can pick the least-loaded node from one cheap
	// healthz probe instead of parsing the full /metrics exposition.
	WorkersBusy       int           `json:"workers_busy"`
	WorkerUtilization float64       `json:"worker_utilization"`
	QueueDepth        int           `json:"queue_depth"`
	QueueCapacity     int           `json:"queue_capacity"`
	Jobs              map[State]int `json:"jobs"`
	Cache             CacheStats    `json:"cache"`
	// TotalEvals counts mapping evaluations actually performed since the
	// server started (finished jobs plus in-flight progress; cache hits
	// replay without evaluating and do not count). EvalsPerSec is the
	// lifetime average throughput — under the paper's equal-budget
	// protocol, evaluation throughput is the service's effective search
	// capacity.
	TotalEvals  int64   `json:"total_evals"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	UptimeSec   float64 `json:"uptime_sec"`
}
