package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"phonocmap/internal/core"
	"phonocmap/internal/runner"
	"phonocmap/internal/sweep"
)

// SweepRequest is the POST /v1/sweeps payload: a declarative design-
// space grid and the service's cache switch. Every dimension is a list
// and the sweep is the cross product; empty dimensions default like
// single jobs (auto-sized mesh, SNR, R-PBLA, budget 20000, seed 1).
type SweepRequest struct {
	sweep.Spec
	// NoCache skips the result cache on both lookup and fill for every
	// cell, and disables within-sweep cell deduplication.
	NoCache bool `json:"no_cache,omitempty"`
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

// SweepCellResult is one finished cell of a sweep result: the runner's
// cell result and the job that backs it.
type SweepCellResult struct {
	runner.SweepCellResult
	JobID  string `json:"job_id,omitempty"`
	Cached bool   `json:"cached,omitempty"`
}

// SweepResult is the GET /v1/sweeps/{id}/result payload: the per-cell
// outcomes plus the sweep engine's aggregations — Table II comparison
// rows, budget-ablation curves, per-application Pareto fronts
// (report-annotated when analyses ran) and the analysis-derived summary
// columns.
type SweepResult struct {
	ID    string            `json:"id"`
	State State             `json:"state"`
	Cells []SweepCellResult `json:"cells"`
	sweep.Aggregates
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
	var bests []core.Score // one allocation for every cell's Best
	if cells {
		st.Cells = make([]SweepCellStatus, 0, len(sw.cells))
		bests = make([]core.Score, len(sw.cells))
	}
	for i, sc := range sw.cells {
		cs := SweepCellStatus{State: StateQueued} // not yet materialized
		var best core.Score
		var hasBest bool
		if j := jobs[i]; j != nil {
			cs, best, hasBest = j.cellStatus()
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
			if hasBest {
				bests[i] = best
				cs.Best = &bests[i]
			}
			st.Cells = append(st.Cells, cs)
		}
	}
	return st
}

// result builds the terminal result payload: every cell's outcome in
// the runner's shape plus its backing job, and the aggregations from
// sweep.Aggregate, which leaves failed and cancelled cells out.
func (sw *Sweep) result() SweepResult {
	sw.mu.Lock()
	state := sw.state
	jobs := make([]*Job, len(sw.jobs))
	copy(jobs, sw.jobs)
	sw.mu.Unlock()

	results := make([]sweep.Result, len(jobs))
	for i, j := range jobs {
		results[i] = sw.cellResult(i, j)
	}
	out := SweepResult{
		ID:         sw.id,
		State:      state,
		Cells:      make([]SweepCellResult, len(jobs)),
		Aggregates: sweep.Aggregate(results),
	}
	for i, j := range jobs {
		out.Cells[i].SweepCellResult = runner.CellResult(results[i])
		if j != nil {
			out.Cells[i].JobID, out.Cells[i].Cached = j.id, j.cached
		}
	}
	return out
}

// cellResult reads cell i's outcome from job j (nil when never
// submitted) in the sweep engine's shape, from the job's settled entry
// under the job's lock. A cell without a result carries its error.
func (sw *Sweep) cellResult(i int, j *Job) sweep.Result {
	r := sweep.Result{Index: i, Cell: sw.cells[i].cell}
	if j == nil {
		r.Err = errors.New("cancelled before submission")
		return r
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.entry == nil {
		msg := j.errMsg
		if msg == "" {
			msg = string(j.state)
		}
		r.Err = errors.New(msg)
		return r
	}
	r.Run, r.Report = j.entry.Result, j.entry.Report
	return r
}

// runSweep feeds the sweep's cells to the shared worker pool and waits
// for them to settle. Cells whose spec was already seen in this sweep
// share one job; every other cell is admitted like a submitted job — a
// replay from the result cache, or a compiled job enqueued on the pool —
// so a sweep shards across the pool exactly like independently
// submitted requests, with the queue's backpressure pacing submission
// instead of overflowing it.
func (s *Server) runSweep(sw *Sweep) {
	if !sw.markRunning() {
		return
	}
	defer sw.cancel() // release the sweep context resources
	defer func() {
		sw.finish()
		s.logger.Info("sweep finished", "sweep", sw.id, "state", sw.currentState())
	}()

	// Within-sweep dedup: identical cells (same content address) share
	// one job, and therefore one computation. A cell whose compile failed
	// is not shared; a later duplicate is admitted again.
	byKey := make(map[string]*Job, len(sw.cells))
	for i, sc := range sw.cells {
		if sw.ctx.Err() != nil {
			break
		}
		if j, ok := byKey[sc.key]; ok {
			sw.setJob(i, j)
			continue
		}
		// Expansion validated the grid, so a compile failure here is
		// exotic (e.g. pathological custom photonic parameters); it fails
		// this cell, not the sweep.
		j, err := s.admit(sc.spec, sc.key, sw.noCache, sw.ctx)
		s.register(j)
		sw.setJob(i, j)
		if err == nil && !sw.noCache {
			byKey[sc.key] = j
		}
		if j.currentState().Terminal() {
			continue // a cache replay or a failed compile: nothing to run
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
