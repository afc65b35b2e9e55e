package service

import (
	"context"
	"sync"
	"time"

	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
	"phonocmap/internal/store"
)

// State is a job lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted optimization with its mutable lifecycle. The
// worker that dequeues it is its only writer apart from cancellation;
// HTTP handlers read snapshots under the mutex.
type Job struct {
	id   string
	spec Spec
	key  string

	// comp is the compiled scenario, built at submission (validating the
	// request) and handed to the single worker that runs the job; the
	// problem it owns is not safe for concurrent use, so nothing else may
	// touch it.
	comp *scenario.Compiled

	noCache bool

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	state     State
	cached    bool
	folded    bool // evals folded into the server's lifetime counter
	submitted time.Time
	started   time.Time
	finished  time.Time
	// tracer records the run from the moment the job starts running;
	// status, the event stream and the trace endpoint read it until the
	// job settles with an entry.
	tracer *scenario.Tracer
	// entry is the settled run — the executor's outcome, or the cache
	// entry a hit replays. Nil until then, and for jobs that end without
	// a result.
	entry  *store.Entry
	errMsg string
}

func newJob(id string, spec Spec, key string, comp *scenario.Compiled, noCache bool, parent context.Context) *Job {
	ctx, cancel := context.WithCancel(parent)
	return &Job{
		id:        id,
		spec:      spec,
		key:       key,
		comp:      comp,
		noCache:   noCache,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
}

// newCachedJob materializes a cache hit as an already-finished job so
// hits and misses share one lifecycle and API shape. The entry is the
// original run's full payload — result, trace, per-island breakdown and
// report — replayed verbatim, so a hit reports exactly what the live run
// ended with and clients diffing status or results across hit and miss
// see one shape.
func newCachedJob(id string, spec Spec, e store.Entry) *Job {
	now := time.Now()
	j := &Job{
		id:     id,
		spec:   spec,
		key:    e.Key,
		done:   make(chan struct{}),
		state:  StateDone,
		cached: true,
		// A replay performs no evaluations; the originals were folded
		// into the server's throughput counter by the job that ran.
		folded:    true,
		submitted: now,
		started:   now,
		finished:  now,
		entry:     &e,
	}
	close(j.done)
	return j
}

// Cancel requests cancellation. A queued job flips to cancelled
// immediately; a running job stops at its next evaluation attempt.
func (j *Job) Cancel() {
	if j.cancel != nil {
		j.cancel()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.state = StateCancelled
		j.finished = time.Now()
		j.closeDoneLocked()
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// markRunning transitions queued -> running and starts the run's
// tracer; false means the job was cancelled while waiting in the queue
// and must not run.
func (j *Job) markRunning() (*scenario.Tracer, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.tracer = scenario.NewTracer(j.spec.Seeds)
	return j.tracer, true
}

// finish records the terminal state of an executed job: its settled
// entry (nil when the job ends without a result) or its error.
func (j *Job) finish(state State, e *store.Entry, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.finished = time.Now()
	// The worker was the compiled scenario's only user; release the
	// network/path tables now so finished jobs in the registry do not pin
	// them.
	j.comp = nil
	if e != nil {
		// The entry carries everything the tracer recorded.
		j.entry = e
		j.tracer = nil
	}
	if err != nil {
		j.errMsg = err.Error()
	}
	j.closeDoneLocked()
}

// islandsLocked copies the per-island evaluation counts: the settled
// entry's, the tracer's while the job runs, zeros before it starts.
func (j *Job) islandsLocked() []int {
	switch {
	case j.entry != nil:
		return append([]int(nil), j.entry.IslandEvals...)
	case j.tracer != nil:
		return j.tracer.IslandEvals()
	default:
		return make([]int, j.spec.Seeds)
	}
}

// tallyLocked returns the evaluation total and the best score so far
// (ok false before the first improvement), copying nothing.
func (j *Job) tallyLocked() (evals int, best core.Score, ok bool) {
	switch {
	case j.entry != nil:
		return j.evalsLocked(j.entry.IslandEvals), j.entry.Result.Score, true
	case j.tracer != nil:
		return j.tracer.Progress()
	default:
		return 0, core.Score{}, false
	}
}

// totalEvalsLocked sums the per-island counters (falling back to the
// final result when it counts more).
func (j *Job) totalEvalsLocked() int {
	evals, _, _ := j.tallyLocked()
	return evals
}

// evalsLocked totals a per-island breakdown of the job.
func (j *Job) evalsLocked(islands []int) int {
	evals := 0
	for _, e := range islands {
		evals += e
	}
	if j.entry != nil && j.entry.Result.Evals > evals {
		evals = j.entry.Result.Evals
	}
	return evals
}

// foldEvals hands the job's evaluations over to the server's lifetime
// counter exactly once; unfoldedEvals reports them until that moment.
// The pair keeps the /healthz total consistent: a job's evaluations are
// visible either through the live scan or through the folded counter,
// never twice and never not at all (the folded counter is read before
// the scan, so a fold racing the scan can only undercount transiently).
func (j *Job) foldEvals() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.folded {
		return 0
	}
	j.folded = true
	return j.totalEvalsLocked()
}

func (j *Job) unfoldedEvals() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.folded {
		return 0
	}
	return j.totalEvalsLocked()
}

func (j *Job) closeDoneLocked() {
	select {
	case <-j.done:
	default:
		close(j.done)
	}
}

// currentState reads the lifecycle state under the lock.
func (j *Job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// snapshotTrace returns a copy of the improvement timeline in arrival
// order: the tracer's while the job runs, the settled entry's after.
func (j *Job) snapshotTrace() (State, []TraceEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var events []TraceEvent
	switch {
	case j.entry != nil:
		events = j.entry.Trace
	case j.tracer != nil:
		events = j.tracer.Events()
	}
	return j.state, append(make([]TraceEvent, 0, len(events)), events...)
}

// result snapshot; ok is false when the job has no result (yet).
func (j *Job) snapshotResult() (JobResult, State, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := j.entry
	if e == nil {
		return JobResult{}, j.state, false
	}
	r := e.Result
	// The span record is assembled from the entry, which a cache hit
	// replays verbatim (events with their original AtMs, the live run's
	// island breakdown and duration), so hit and miss return identical
	// traces.
	durationMs := float64(r.Duration) / float64(time.Millisecond)
	return JobResult{
		ID:         j.id,
		State:      j.state,
		Cached:     j.cached,
		Algorithm:  r.Algorithm,
		Objective:  r.Objective.String(),
		Mapping:    r.Mapping.Clone(),
		Score:      r.Score,
		Evals:      r.Evals,
		DurationMs: durationMs,
		Seed:       r.Seed,
		Cancelled:  r.Cancelled,
		Report:     e.Report,
		Trace:      scenario.AssembleTrace(e.Trace, e.IslandEvals, durationMs),
	}, j.state, true
}

// status builds the wire status snapshot.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Evals totals the copied breakdown rather than a second read of a
	// running job's tracer, so the two agree.
	islands := j.islandsLocked()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Cached:      j.cached,
		Spec:        j.spec,
		Submitted:   rfc3339(j.submitted),
		Started:     rfc3339(j.started),
		Finished:    rfc3339(j.finished),
		Evals:       j.evalsLocked(islands),
		IslandEvals: islands,
		Budget:      j.spec.Budget * max(j.spec.Seeds, 1),
		Error:       j.errMsg,
	}
	if _, best, ok := j.tallyLocked(); ok {
		st.Best = &best
	}
	return st
}

// cellStatus is the part of the job's status a sweep cell shows, read
// under one lock without copying the per-island breakdown: no spec copy,
// no timestamps, and the best score so far (ok false before the first
// improvement) returned by value. The caller fills in the cell's index,
// grid cell, budget and Best.
func (j *Job) cellStatus() (cs SweepCellStatus, best core.Score, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cs = SweepCellStatus{JobID: j.id, State: j.state, Cached: j.cached, Error: j.errMsg}
	cs.Evals, best, ok = j.tallyLocked()
	return cs, best, ok
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
