package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"phonocmap/internal/config"
	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
	"phonocmap/internal/sweep"
)

// SweepRequest is the POST /v1/sweeps payload: a declarative design-
// space grid. Every dimension is a list and the sweep is the cross
// product; empty dimensions default like single jobs (auto-sized mesh,
// SNR, R-PBLA, budget 20000, seed 1).
type SweepRequest struct {
	Apps       []config.AppSpec  `json:"apps"`
	Archs      []config.ArchSpec `json:"archs,omitempty"`
	Objectives []string          `json:"objectives,omitempty"`
	Algorithms []string          `json:"algorithms,omitempty"`
	Budgets    []int             `json:"budgets,omitempty"`
	Seeds      []int64           `json:"seeds,omitempty"`
	// Islands > 1 runs every cell in multi-seed islands mode.
	Islands int `json:"islands,omitempty"`
	// Analyses runs the scenario analysis pipeline on every cell's
	// winning mapping; per-cell reports come back in the sweep result and
	// feed the analysis-derived aggregation columns.
	Analyses *scenario.AnalysesSpec `json:"analyses,omitempty"`
	// NoCache skips the result cache on both lookup and fill for every
	// cell, and disables within-sweep cell deduplication.
	NoCache bool `json:"no_cache,omitempty"`
}

// grid converts the request into the sweep engine's spec.
func (r SweepRequest) grid() sweep.Spec {
	return sweep.Spec{
		Apps:       r.Apps,
		Archs:      r.Archs,
		Objectives: r.Objectives,
		Algorithms: r.Algorithms,
		Budgets:    r.Budgets,
		Seeds:      r.Seeds,
		Islands:    r.Islands,
		Analyses:   r.Analyses,
	}
}

// SweepCellStatus is the live progress of one grid cell.
type SweepCellStatus struct {
	Index int        `json:"index"`
	Cell  sweep.Cell `json:"cell"`
	// JobID is the backing job (shared between duplicate cells of the
	// same sweep); empty while the cell is still waiting to be submitted.
	JobID  string      `json:"job_id,omitempty"`
	State  State       `json:"state"`
	Cached bool        `json:"cached,omitempty"`
	Evals  int         `json:"evals"`
	Budget int         `json:"budget"`
	Best   *core.Score `json:"best,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// SweepStatus is the GET /v1/sweeps/{id} payload. The GET /v1/sweeps
// listing returns the same shape without Cells — per-cell detail for a
// full-size registry would be megabytes per poll.
type SweepStatus struct {
	ID       string            `json:"id"`
	State    State             `json:"state"`
	Created  string            `json:"created,omitempty"`
	Started  string            `json:"started,omitempty"`
	Finished string            `json:"finished,omitempty"`
	Counts   map[State]int     `json:"counts"`
	Evals    int               `json:"evals"`
	Budget   int               `json:"budget"`
	Cells    []SweepCellStatus `json:"cells,omitempty"`
}

// SweepCellResult is one finished cell of a sweep result.
type SweepCellResult struct {
	Index   int          `json:"index"`
	Cell    sweep.Cell   `json:"cell"`
	JobID   string       `json:"job_id,omitempty"`
	Cached  bool         `json:"cached,omitempty"`
	Score   core.Score   `json:"score"`
	Mapping core.Mapping `json:"mapping,omitempty"`
	Evals   int          `json:"evals"`
	// Report is the cell's analysis report (cache hits replay the live
	// run's report verbatim).
	Report *scenario.Report `json:"report,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// SweepResult is the GET /v1/sweeps/{id}/result payload: the per-cell
// outcomes plus the sweep engine's aggregations — Table II comparison
// rows, budget-ablation curves, per-application Pareto fronts
// (report-annotated when analyses ran) and the analysis-derived summary
// columns.
type SweepResult struct {
	ID           string                         `json:"id"`
	State        State                          `json:"state"`
	Cells        []SweepCellResult              `json:"cells"`
	Table        []sweep.TableRow               `json:"table,omitempty"`
	BudgetCurves []sweep.BudgetPoint            `json:"budget_curves,omitempty"`
	Pareto       map[string][]sweep.ParetoEntry `json:"pareto,omitempty"`
	Analysis     []sweep.AnalysisRow            `json:"analysis,omitempty"`
}

// sweepCell binds one expanded grid cell to its normalized job spec and,
// once materialized, the job executing (or replaying) it.
type sweepCell struct {
	cell sweep.Cell
	spec Spec
	key  string
}

// Sweep is one submitted design-space sweep: a set of cells sharded over
// the server's worker pool as ordinary jobs, sharing the job registry
// and the content-addressed result cache.
type Sweep struct {
	id      string
	noCache bool

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	cells []sweepCell // immutable after construction

	mu       sync.Mutex
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	jobs     []*Job // per cell; nil until materialized
}

func newSweep(id string, cells []sweepCell, noCache bool, parent context.Context) *Sweep {
	ctx, cancel := context.WithCancel(parent)
	return &Sweep{
		id:      id,
		noCache: noCache,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		cells:   cells,
		state:   StateQueued,
		created: time.Now(),
		jobs:    make([]*Job, len(cells)),
	}
}

// Done returns a channel closed when the sweep reaches a terminal state.
func (sw *Sweep) Done() <-chan struct{} { return sw.done }

// Cancel stops the sweep: unsubmitted cells are abandoned, queued cell
// jobs flip to cancelled immediately and running ones stop at their next
// evaluation attempt.
func (sw *Sweep) Cancel() {
	sw.cancel()
	sw.mu.Lock()
	jobs := make([]*Job, 0, len(sw.jobs))
	for _, j := range sw.jobs {
		if j != nil {
			jobs = append(jobs, j)
		}
	}
	sw.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
}

func (sw *Sweep) markRunning() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.state != StateQueued {
		return false
	}
	sw.state = StateRunning
	sw.started = time.Now()
	return true
}

func (sw *Sweep) setJob(i int, j *Job) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.jobs[i] = j
}

func (sw *Sweep) jobAt(i int) *Job {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.jobs[i]
}

// finish settles the sweep's terminal state from its cells: cancelled
// when the sweep was cancelled or any cell was, failed when any cell
// failed, done otherwise.
func (sw *Sweep) finish() {
	state := StateDone
	if sw.ctx.Err() != nil {
		state = StateCancelled
	} else {
		for i := range sw.cells {
			j := sw.jobAt(i)
			if j == nil {
				state = StateCancelled
				break
			}
			switch j.currentState() {
			case StateCancelled:
				state = StateCancelled
			case StateFailed:
				if state == StateDone {
					state = StateFailed
				}
			}
			if state == StateCancelled {
				break
			}
		}
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.state.Terminal() {
		return
	}
	sw.state = state
	sw.finished = time.Now()
	select {
	case <-sw.done:
	default:
		close(sw.done)
	}
}

func (sw *Sweep) currentState() State {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.state
}

// status builds the wire status snapshot in one walk over the cells.
// With cells it carries every cell's live progress; without, it is the
// listing weight: the same counts, evals and budget totals and no
// per-cell array.
func (sw *Sweep) status(cells bool) SweepStatus {
	sw.mu.Lock()
	state := sw.state
	created, started, finished := sw.created, sw.started, sw.finished
	jobs := make([]*Job, len(sw.jobs))
	copy(jobs, sw.jobs)
	sw.mu.Unlock()

	st := SweepStatus{
		ID:       sw.id,
		State:    state,
		Created:  rfc3339(created),
		Started:  rfc3339(started),
		Finished: rfc3339(finished),
		Counts:   make(map[State]int),
	}
	if cells {
		st.Cells = make([]SweepCellStatus, 0, len(sw.cells))
	}
	for i, sc := range sw.cells {
		cs := SweepCellStatus{State: StateQueued} // not yet materialized
		if j := jobs[i]; j != nil {
			cs = j.cellStatus()
		} else if state.Terminal() {
			// The sweep ended before this cell was ever submitted.
			cs.State = StateCancelled
		}
		cs.Index, cs.Cell = i, sc.cell
		cs.Budget = sc.spec.Budget * max(sc.spec.Seeds, 1)
		st.Counts[cs.State]++
		st.Evals += cs.Evals
		st.Budget += cs.Budget
		if cells {
			st.Cells = append(st.Cells, cs)
		}
	}
	return st
}

// result builds the terminal result payload: every cell's outcome, and
// the aggregations from sweep.Aggregate, which leaves failed and
// cancelled cells out.
func (sw *Sweep) result() SweepResult {
	sw.mu.Lock()
	state := sw.state
	jobs := make([]*Job, len(sw.jobs))
	copy(jobs, sw.jobs)
	sw.mu.Unlock()

	out := SweepResult{
		ID:    sw.id,
		State: state,
		Cells: make([]SweepCellResult, 0, len(sw.cells)),
	}
	results := make([]sweep.Result, 0, len(sw.cells))
	for i, j := range jobs {
		cr, r := sw.cellResult(i, j)
		out.Cells = append(out.Cells, cr)
		results = append(results, r)
	}
	agg := sweep.Aggregate(results)
	out.Table = agg.Table
	out.BudgetCurves = agg.BudgetCurves
	out.Pareto = agg.Pareto
	out.Analysis = agg.Analysis
	return out
}

// cellResult reports cell i, backed by job j (nil when never submitted),
// both on the wire and in the sweep engine's shape. A cell without a
// result carries its error in both.
func (sw *Sweep) cellResult(i int, j *Job) (SweepCellResult, sweep.Result) {
	sc := sw.cells[i]
	cr := SweepCellResult{Index: i, Cell: sc.cell}
	r := sweep.Result{Index: i, Cell: sc.cell}
	if j == nil {
		cr.Error = "cancelled before submission"
		r.Err = errors.New(cr.Error)
		return cr, r
	}
	cr.JobID = j.id
	res, state, ok := j.snapshotResult()
	if !ok {
		cr.Error = j.cellStatus().Error
		if cr.Error == "" {
			cr.Error = string(state)
		}
		r.Err = errors.New(cr.Error)
		return cr, r
	}
	cr.Cached = res.Cached
	cr.Score = res.Score
	cr.Mapping = res.Mapping
	cr.Evals = res.Evals
	cr.Report = res.Report
	r.Run = core.RunResult{
		Algorithm: res.Algorithm,
		Mapping:   res.Mapping,
		Score:     res.Score,
		Evals:     res.Evals,
		Seed:      res.Seed,
		Cancelled: res.Cancelled,
	}
	r.Report = res.Report
	return cr, r
}

// runSweep feeds the sweep's cells to the shared worker pool and waits
// for them to settle. Cells whose spec was already seen in this sweep
// share one job; cells whose spec is in the result cache replay
// instantly; the rest are enqueued as ordinary jobs, so a sweep shards
// across the pool exactly like independently submitted requests — with
// the queue's backpressure pacing submission instead of overflowing it.
func (s *Server) runSweep(sw *Sweep) {
	if !sw.markRunning() {
		return
	}
	defer sw.cancel() // release the sweep context resources
	defer func() {
		sw.finish()
		s.logger.Info("sweep finished", "sweep", sw.id, "state", sw.currentState())
	}()

	byKey := make(map[string]*Job, len(sw.cells))
	for i, sc := range sw.cells {
		if sw.ctx.Err() != nil {
			break
		}
		if !sw.noCache {
			// Within-sweep dedup: identical cells (same content address)
			// share one job, and therefore one computation.
			if j, ok := byKey[sc.key]; ok {
				sw.setJob(i, j)
				continue
			}
			if e, ok := s.cache.get(sc.key); ok {
				j := newCachedJob(s.newJobID(), sc.spec, e)
				s.register(j)
				sw.setJob(i, j)
				byKey[sc.key] = j
				continue
			}
		}
		comp, err := s.nets.Compile(sc.spec)
		if err != nil {
			// Expansion validated the grid, so a build failure here is
			// exotic (e.g. pathological custom photonic parameters); it
			// fails this cell, not the sweep.
			j := newJob(s.newJobID(), sc.spec, sc.key, nil, sw.noCache, sw.ctx)
			j.finish(StateFailed, nil, err)
			s.register(j)
			sw.setJob(i, j)
			continue
		}
		j := newJob(s.newJobID(), sc.spec, sc.key, comp, sw.noCache, sw.ctx)
		s.register(j)
		sw.setJob(i, j)
		if !sw.noCache {
			byKey[sc.key] = j
		}
		select {
		case s.queue <- j:
			// Same shutdown race guard as handleSubmit: a Shutdown that
			// drained the queue between our send and the workers exiting
			// would strand the job in "queued" forever.
			if s.closed.Load() {
				j.Cancel()
			}
		case <-sw.ctx.Done():
			j.Cancel()
		}
	}
	// Wait for every materialized cell; jobs always reach a terminal
	// state (cancellation propagates through sw.ctx and the queue drain).
	for i := range sw.cells {
		if j := sw.jobAt(i); j != nil {
			<-j.Done()
		}
	}
}
