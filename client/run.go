package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
	"phonocmap/internal/service"
	"phonocmap/internal/sweep"
)

// RunScenario submits the scenario as a job, waits for it to settle
// (SSE events when available, polling with backoff otherwise) and
// fetches the result. A cache hit on the server returns without any
// waiting. Cancelling ctx cancels the remote job and — per the Runner
// contract, matching local execution — returns the best-so-far partial
// result with Cancelled set when the server retained one, ctx's error
// otherwise.
func (c *Client) RunScenario(ctx context.Context, spec scenario.Spec) (runner.ScenarioResult, error) {
	req := service.Request{Spec: spec, NoCache: c.noCache}
	var st service.JobStatus
	if _, err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st, 0, false); err != nil {
		return runner.ScenarioResult{}, err
	}
	st, err := c.awaitJob(ctx, st)
	if err != nil {
		return runner.ScenarioResult{}, err
	}

	switch st.State {
	case service.StateFailed:
		return runner.ScenarioResult{}, fmt.Errorf("client: job %s failed: %s", st.ID, st.Error)
	case service.StateDone, service.StateCancelled:
		// When the wait ended because our own context died, the terminal
		// status came from the salvage path — fetch the (partial) result
		// on a detached context too.
		fetchCtx := ctx
		if ctx.Err() != nil {
			var cancel context.CancelFunc
			fetchCtx, cancel = detachedContext()
			defer cancel()
		}
		// The result payload carries every other field under the same
		// keys; its id, state and cached keys have no field here.
		res := runner.ScenarioResult{Spec: st.Spec, IslandEvals: st.IslandEvals}
		if _, err := c.do(fetchCtx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, &res, http.StatusOK, true); err != nil {
			if apiErr, ok := err.(*APIError); ok && apiErr.Code == service.CodeNoResult {
				// Cancelled before any evaluation: nothing to salvage.
				if ctx.Err() != nil {
					return runner.ScenarioResult{}, ctx.Err()
				}
				return runner.ScenarioResult{}, fmt.Errorf("client: job %s %s without a result", st.ID, st.State)
			}
			return runner.ScenarioResult{}, err
		}
		return res, nil
	default:
		return runner.ScenarioResult{}, fmt.Errorf("client: job %s settled in unexpected state %q", st.ID, st.State)
	}
}

// awaitJob waits for a submitted job to reach a terminal state. When
// the caller's context is cancelled mid-wait, the remote job is
// cancelled too and its terminal status salvaged (on a detached
// context) so the caller can return the best-so-far partial result —
// and no orphaned work keeps burning a server worker.
func (c *Client) awaitJob(ctx context.Context, st service.JobStatus) (service.JobStatus, error) {
	if st.State.Terminal() {
		return st, nil
	}
	if c.useEvents {
		if final, ok := c.watchJob(ctx, st.ID); ok {
			return final, nil
		}
		// The stream failed or ended early; the poller below finishes the
		// wait — unless the stream died because our own context did.
		if ctx.Err() != nil {
			return c.salvageJob(st.ID, ctx.Err())
		}
		c.nSSEFallbacks.Add(1)
	}
	final, err := c.pollJob(ctx, st.ID)
	if err != nil {
		if ctx.Err() != nil {
			return c.salvageJob(st.ID, ctx.Err())
		}
		return service.JobStatus{}, err
	}
	return final, nil
}

// detachedContext bounds the cleanup calls that must outlive the
// caller's (already dead) context.
func detachedContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Second)
}

// salvageJob cancels the job remotely and waits (bounded, detached from
// the dead caller context) for it to settle, so the caller can ship the
// partial result the server retained — the same best-so-far semantics
// local execution has on cancellation. cause is returned when nothing
// could be salvaged.
func (c *Client) salvageJob(id string, cause error) (service.JobStatus, error) {
	ctx, cancel := detachedContext()
	defer cancel()
	if err := c.CancelJob(ctx, id); err != nil {
		return service.JobStatus{}, cause
	}
	st, err := c.pollJob(ctx, id)
	if err != nil {
		return service.JobStatus{}, cause
	}
	return st, nil
}

// watchJob consumes the job's SSE event stream until a terminal status
// event arrives. ok is false when the stream could not be used (not
// supported, buffered away by a proxy, or cut mid-run) — the caller
// falls back to polling.
func (c *Client) watchJob(ctx context.Context, id string) (service.JobStatus, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return service.JobStatus{}, false
	}
	req.Header.Set("User-Agent", c.userAgent)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return service.JobStatus{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		return service.JobStatus{}, false
	}

	// Minimal SSE framing: accumulate "data:" lines until a blank line
	// terminates the event. Event names and comments are skipped — the
	// stream only carries "status" events.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) == 0 {
				continue
			}
			var st service.JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return service.JobStatus{}, false
			}
			data = data[:0]
			if st.State.Terminal() {
				return st, true
			}
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		}
	}
	return service.JobStatus{}, false
}

// pollJob polls the job status with exponential backoff until it
// settles.
func (c *Client) pollJob(ctx context.Context, id string) (service.JobStatus, error) {
	interval := c.pollInterval
	for {
		c.nPollRounds.Add(1)
		var st service.JobStatus
		if _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st, http.StatusOK, true); err != nil {
			return service.JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return service.JobStatus{}, ctx.Err()
		case <-time.After(jitter(interval)):
		}
		if interval *= 2; interval > c.maxPollInterval {
			interval = c.maxPollInterval
		}
	}
}

// CancelJob asks the server to cancel a job: queued jobs flip to
// cancelled immediately, running jobs stop at their next evaluation
// attempt.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	_, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil, 0, true)
	return err
}

// CancelSweep asks the server to cancel a sweep and all of its cells.
func (c *Client) CancelSweep(ctx context.Context, id string) error {
	_, err := c.do(ctx, http.MethodDelete, "/v1/sweeps/"+id, nil, nil, 0, true)
	return err
}

// RunSweep submits the grid as a server-side sweep, polls its status
// until every cell settles, and fetches the aggregated result.
// opts.OnCellDone fires as the status stream shows cells reaching a
// terminal state, with the fields the stream carries (score, evals,
// error); mappings and reports arrive with the returned SweepResult.
// Cancelling ctx cancels the remote sweep and — matching local
// execution — returns the partial per-cell results the server
// retained (unfinished cells report their cancellation as Error), or
// ctx's error when nothing could be salvaged.
func (c *Client) RunSweep(ctx context.Context, spec sweep.Spec, opts runner.SweepOptions) (runner.SweepResult, error) {
	req := service.SweepRequest{Spec: spec, NoCache: opts.NoCache || c.noCache}
	var st service.SweepStatus
	if _, err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &st, 0, false); err != nil {
		return runner.SweepResult{}, err
	}
	id := st.ID

	settled := make(map[int]bool)
	emit := func(st service.SweepStatus) {
		if opts.OnCellDone == nil {
			return
		}
		for _, cs := range st.Cells {
			if settled[cs.Index] || !cs.State.Terminal() {
				continue
			}
			settled[cs.Index] = true
			cr := runner.SweepCellResult{Index: cs.Index, Cell: cs.Cell, Evals: cs.Evals, Error: cs.Error}
			if cs.Best != nil {
				cr.Score = *cs.Best
			}
			opts.OnCellDone(cr)
		}
	}
	emit(st)

	interval := c.pollInterval
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return c.salvageSweep(id, ctx.Err())
		case <-time.After(jitter(interval)):
		}
		if interval *= 2; interval > c.maxPollInterval {
			interval = c.maxPollInterval
		}
		c.nPollRounds.Add(1)
		if _, err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st, http.StatusOK, true); err != nil {
			if ctx.Err() != nil {
				return c.salvageSweep(id, ctx.Err())
			}
			return runner.SweepResult{}, err
		}
		emit(st)
	}
	return c.fetchSweepResult(ctx, id)
}

// fetchSweepResult downloads a terminal sweep's result. The payload
// carries the runner's fields under the same keys; its id, state and
// per-cell job_id and cached keys have no field there.
func (c *Client) fetchSweepResult(ctx context.Context, id string) (runner.SweepResult, error) {
	var res runner.SweepResult
	if _, err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id+"/result", nil, &res, http.StatusOK, true); err != nil {
		return runner.SweepResult{}, err
	}
	return res, nil
}

// salvageSweep cancels the sweep remotely and waits (bounded, detached
// from the dead caller context) for its cells to settle, returning the
// partial results — the sweep analogue of salvageJob. cause is returned
// when nothing could be salvaged.
func (c *Client) salvageSweep(id string, cause error) (runner.SweepResult, error) {
	ctx, cancel := detachedContext()
	defer cancel()
	if err := c.CancelSweep(ctx, id); err != nil {
		return runner.SweepResult{}, cause
	}
	interval := c.pollInterval
	for {
		c.nPollRounds.Add(1)
		var st service.SweepStatus
		if _, err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st, http.StatusOK, true); err != nil {
			return runner.SweepResult{}, cause
		}
		if st.State.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			return runner.SweepResult{}, cause
		case <-time.After(jitter(interval)):
		}
		if interval *= 2; interval > c.maxPollInterval {
			interval = c.maxPollInterval
		}
	}
	res, err := c.fetchSweepResult(ctx, id)
	if err != nil {
		return runner.SweepResult{}, cause
	}
	return res, nil
}
