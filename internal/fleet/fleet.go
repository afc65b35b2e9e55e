// Package fleet is the horizontal scale-out backend: a Runner that
// shards sweep cells across many phonocmap-serve nodes through the
// client SDK. The paper's equal-budget design-space exploration is
// embarrassingly parallel at the cell level — each cell is one
// content-addressed job spec — so a coordinator that dispatches cells
// to the least-loaded healthy node turns N worker pools into one.
//
// The contract is the Runner contract, unchanged: a fleet sweep returns
// a SweepResult byte-identical to a LocalRunner sweep of the same spec,
// at any fleet size, because every cell's result is deterministic in
// its spec and the coordinator reduces cells in cell-index order
// through the same assembly path Local uses. The differential suite in
// this package enforces that equivalence against live in-process
// servers, including a node killed mid-sweep.
//
// Failure handling: nodes are probed periodically through /healthz and
// tracked through a healthy / draining / down state machine; a cell
// whose node fails mid-flight migrates — the failing node joins the
// cell's excluded set and the cell retries elsewhere, bounded by
// CellAttempts. Deterministic rejections (invalid specs) do not
// migrate: they would fail identically everywhere.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"time"

	"phonocmap/client"
	"phonocmap/internal/core"
	"phonocmap/internal/obs"
	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
	"phonocmap/internal/service"
	"phonocmap/internal/sweep"
)

// Config configures a fleet coordinator.
type Config struct {
	// Servers is the node list: one phonocmap-serve base URL per node.
	// At least one is required.
	Servers []string
	// ProbeInterval is the /healthz probe period (default 1s).
	ProbeInterval time.Duration
	// DownAfter is the number of consecutive failed probes before a node
	// is marked down (default 2). Down nodes stop receiving new cells
	// until a probe succeeds again.
	DownAfter int
	// CellAttempts bounds how many nodes one cell may be dispatched to
	// before its failure is final (default len(Servers)+1: every node
	// gets one chance, plus one retry after the excluded set resets).
	CellAttempts int
	// ClientOptions is appended to every per-node client (e.g. tighter
	// retry budgets; the coordinator owns migration, so per-node clients
	// should fail fast rather than retry for long).
	ClientOptions []client.Option
	// Registry, when non-nil, receives the phonocmap_fleet_* metric
	// families — pass a server's MetricsRegistry() to co-host them on an
	// existing /metrics exposition. Each registry can host at most one
	// coordinator (families register once). Nil keeps the instruments
	// private.
	Registry *obs.Registry
}

// Runner is a fleet coordinator: a runner.Runner whose execution
// backend is N phonocmap-serve nodes. It is safe for concurrent use.
// Close releases the prober; in-flight calls finish normally.
type Runner struct {
	cfg     Config
	nodes   []*node
	metrics *metrics

	affinity *affinityMap

	stop chan struct{}
	done chan struct{}
}

var _ runner.Runner = (*Runner)(nil)

// New builds a coordinator over the configured nodes and performs one
// synchronous probe round so dispatch starts with live load data. It
// does not fail when nodes are unreachable — they start down and join
// the rotation when probing reaches them — only when the configuration
// itself is unusable.
func New(cfg Config) (*Runner, error) {
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("fleet: at least one server is required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2
	}
	if cfg.CellAttempts <= 0 {
		cfg.CellAttempts = len(cfg.Servers) + 1
	}
	r := &Runner{
		cfg:      cfg,
		affinity: newAffinityMap(affinityCap),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i, addr := range cfg.Servers {
		n, err := newNode(i, addr, cfg.ClientOptions)
		if err != nil {
			return nil, err
		}
		r.nodes = append(r.nodes, n)
	}
	r.metrics = newMetrics(cfg.Registry, r)
	r.probeAll()
	go r.probeLoop()
	return r, nil
}

// Close stops the health prober. It does not cancel in-flight calls.
func (r *Runner) Close() error {
	close(r.stop)
	<-r.done
	return nil
}

// probeLoop drives periodic health probing until Close.
func (r *Runner) probeLoop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

// probeAll probes every node concurrently and waits for the round.
func (r *Runner) probeAll() {
	ctx, cancel := context.WithTimeout(context.Background(), r.probeTimeout())
	defer cancel()
	done := make(chan struct{}, len(r.nodes))
	for _, n := range r.nodes {
		go func(n *node) {
			n.probe(ctx, r.cfg.DownAfter)
			r.metrics.observeNode(n)
			done <- struct{}{}
		}(n)
	}
	for range r.nodes {
		<-done
	}
}

// probeTimeout bounds one probe round: the probe period, floored so a
// fast-probing test configuration still gives the HTTP round trip room.
func (r *Runner) probeTimeout() time.Duration {
	if r.cfg.ProbeInterval < 500*time.Millisecond {
		return 500 * time.Millisecond
	}
	return r.cfg.ProbeInterval
}

// pick selects the dispatch target among non-excluded nodes: the
// least-loaded node in the best available state tier (healthy, then
// draining, then down — a down tier pick gives a just-recovered node a
// chance before the next probe notices). Returns nil when every node is
// excluded.
func (r *Runner) pick(excluded []bool) *node {
	var best *node
	bestTier := int32(3)
	bestLoad := 0.0
	for _, n := range r.nodes {
		if excluded != nil && excluded[n.index] {
			continue
		}
		tier := n.state.Load()
		load := n.load()
		if best == nil || tier < bestTier || (tier == bestTier && load < bestLoad) {
			best, bestTier, bestLoad = n, tier, load
		}
	}
	return best
}

// pickAffine prefers the node that served this content key before (its
// result cache already holds the answer) when that node is healthy and
// not excluded; otherwise it falls back to least-loaded dispatch.
func (r *Runner) pickAffine(key string, excluded []bool) *node {
	if i, ok := r.affinity.get(key); ok && i < len(r.nodes) {
		n := r.nodes[i]
		if (excluded == nil || !excluded[n.index]) && nodeState(n.state.Load()) == stateHealthy {
			return n
		}
	}
	return r.pick(excluded)
}

// RunScenario dispatches one scenario to the fleet with the same
// retry/migration policy sweep cells get.
func (r *Runner) RunScenario(ctx context.Context, spec scenario.Spec) (runner.ScenarioResult, error) {
	// Normalize first so the content key (and therefore cache affinity)
	// is computed on the resolved spec, exactly like a sweep cell's.
	if _, err := spec.Normalize(); err != nil {
		return runner.ScenarioResult{}, err
	}
	return r.runCell(ctx, spec, spec.Key())
}

// runCell executes one content-addressed job on the fleet with the
// node's caching client: dispatch to the affine or least-loaded node,
// migrate away from nodes that fail, bounded by CellAttempts.
func (r *Runner) runCell(ctx context.Context, spec scenario.Spec, key string) (runner.ScenarioResult, error) {
	return r.dispatch(ctx, spec, key, true)
}

// runCellNoCache is runCell against the nodes' cache-bypassing clients
// (cache affinity is pointless without a cache, so dispatch is purely
// least-loaded).
func (r *Runner) runCellNoCache(ctx context.Context, spec scenario.Spec, key string) (runner.ScenarioResult, error) {
	return r.dispatch(ctx, spec, key, false)
}

// dispatch is the fleet's per-cell policy loop: pick a node, run the
// job, and on node-local failure exclude the node and migrate. Attempts
// are bounded by CellAttempts; once every node has failed the cell, the
// excluded set resets so remaining attempts re-try the full rotation (a
// node may have recovered).
func (r *Runner) dispatch(ctx context.Context, spec scenario.Spec, key string, useCache bool) (runner.ScenarioResult, error) {
	excluded := make([]bool, len(r.nodes))
	pick := func() *node {
		if useCache {
			return r.pickAffine(key, excluded)
		}
		return r.pick(excluded)
	}
	var lastErr error
	for attempt := 0; attempt < r.cfg.CellAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return runner.ScenarioResult{}, err
		}
		n := pick()
		if n == nil {
			clear(excluded)
			if n = pick(); n == nil {
				break
			}
		}
		r.metrics.dispatched.Inc()
		if attempt > 0 {
			r.metrics.retried.Inc()
		}
		c := n.c
		if !useCache {
			c = n.cNoCache
		}
		r.metrics.setInflight(n, n.inflight.Add(1))
		res, err := c.RunScenario(ctx, spec)
		r.metrics.setInflight(n, n.inflight.Add(-1))
		if err == nil {
			r.affinity.put(key, n.index)
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return runner.ScenarioResult{}, err
		}
		if !migratable(err) {
			return runner.ScenarioResult{}, err
		}
		// The node failed this cell for node-local reasons: exclude it,
		// count it toward down detection, and migrate.
		excluded[n.index] = true
		n.suspect(r.cfg.DownAfter)
		r.metrics.observeNode(n)
		r.metrics.migrated.Inc()
	}
	return runner.ScenarioResult{}, fmt.Errorf("fleet: cell failed on all attempts: %w", lastErr)
}

// migratable reports whether a cell failure is node-local (worth trying
// another node) rather than deterministic in the spec (it would fail
// identically everywhere). Transport errors, gateway-style statuses,
// queue_full and shutting_down migrate; validation rejections and
// server-side job failures do not.
func migratable(err error) bool {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Code {
		case service.CodeQueueFull, service.CodeShuttingDown:
			return true
		case "":
			// No envelope: an intermediary or a dying process answered.
			return apiErr.StatusCode >= 500
		default:
			return false
		}
	}
	var uerr *url.Error
	return errors.As(err, &uerr)
}

// RunSweep expands the grid, dedups cells by content key, executes each
// unique cell once on the fleet and assembles the results in cell-index
// order through the exact aggregation path Local uses — which is what
// makes the output byte-identical to a local sweep.
func (r *Runner) RunSweep(ctx context.Context, spec sweep.Spec, opts runner.SweepOptions) (runner.SweepResult, error) {
	cells, err := sweep.Expand(spec)
	if err != nil {
		return runner.SweepResult{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Cross-node dedup: cells sharing a content key are one job. The
	// first index runs; every duplicate index receives the same result.
	specs := make([]scenario.Spec, len(cells))
	byKey := make(map[string][]int, len(cells))
	order := make([]string, 0, len(cells))
	for i, c := range cells {
		specs[i] = c.Scenario()
		k := specs[i].Key()
		if _, seen := byKey[k]; !seen {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	r.metrics.deduped.Add(int64(len(cells) - len(order)))

	results := make([]sweep.Result, len(cells))
	done := make([]bool, len(cells))
	runOne := r.cellRunner(opts.NoCache)
	ferr := sweep.ForEach(ctx, len(order), r.sweepWorkers(opts.Workers), func(ctx context.Context, ui int) error {
		key := order[ui]
		idxs := byKey[key]
		res, err := runOne(ctx, specs[idxs[0]], key)
		for _, i := range idxs {
			results[i] = toSweepResult(i, cells[i], res, err)
			done[i] = true
			if opts.OnCellDone != nil {
				opts.OnCellDone(runner.CellResult(results[i]))
			}
		}
		return nil // cell failures stay in their Result, like sweep.Run
	})
	// Mirror sweep.Run: the parent context's cancellation is recorded on
	// the skipped cells, any other ForEach error is surfaced.
	if ferr != nil && !errors.Is(ferr, ctx.Err()) {
		return runner.SweepResult{}, ferr
	}
	for i := range results {
		if done[i] {
			continue
		}
		cause := ctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		results[i] = sweep.Result{Index: i, Cell: cells[i], Err: cause}
		if opts.OnCellDone != nil {
			opts.OnCellDone(runner.CellResult(results[i]))
		}
	}
	return runner.AssembleSweep(results), nil
}

// cellRunner returns the per-cell execution function honoring the
// sweep's cache preference.
func (r *Runner) cellRunner(noCache bool) func(context.Context, scenario.Spec, string) (runner.ScenarioResult, error) {
	if noCache {
		return r.runCellNoCache
	}
	return r.runCell
}

// sweepWorkers resolves the sweep concurrency bound: the caller's
// explicit setting, else the fleet's live worker capacity (cells beyond
// it would only deepen node queues).
func (r *Runner) sweepWorkers(requested int) int {
	if requested > 0 {
		return requested
	}
	total := 0
	for _, n := range r.nodes {
		if nodeState(n.state.Load()) != stateDown {
			total += int(n.workers.Load())
		}
	}
	if total <= 0 {
		total = len(r.nodes)
	}
	return total
}

// toSweepResult converts one fleet cell outcome into the sweep engine's
// result shape, so assembly is shared with Local verbatim.
func toSweepResult(i int, c sweep.Cell, res runner.ScenarioResult, err error) sweep.Result {
	if err != nil {
		return sweep.Result{Index: i, Cell: c, Err: err}
	}
	return sweep.Result{
		Index: i,
		Cell:  c,
		Run: core.RunResult{
			Algorithm: res.Algorithm,
			Mapping:   res.Mapping,
			Score:     res.Score,
			Evals:     res.Evals,
			Seed:      res.Seed,
			Cancelled: res.Cancelled,
		},
		Report: res.Report,
	}
}

// Apps lists the bundled benchmark applications from the first node
// that answers (discovery is identical on every node).
func (r *Runner) Apps(ctx context.Context) ([]scenario.AppInfo, error) {
	return discover(ctx, r, func(ctx context.Context, c *client.Client) ([]scenario.AppInfo, error) {
		return c.Apps(ctx)
	})
}

// Algorithms lists the mapping-optimization algorithms.
func (r *Runner) Algorithms(ctx context.Context) ([]string, error) {
	return discover(ctx, r, func(ctx context.Context, c *client.Client) ([]string, error) {
		return c.Algorithms(ctx)
	})
}

// Routers lists the built-in optical routers.
func (r *Runner) Routers(ctx context.Context) ([]scenario.RouterInfo, error) {
	return discover(ctx, r, func(ctx context.Context, c *client.Client) ([]scenario.RouterInfo, error) {
		return c.Routers(ctx)
	})
}

// Topologies lists the built-in topology kinds.
func (r *Runner) Topologies(ctx context.Context) ([]string, error) {
	return discover(ctx, r, func(ctx context.Context, c *client.Client) ([]string, error) {
		return c.Topologies(ctx)
	})
}

// discover tries nodes in state order (healthy first) until one answers.
func discover[T any](ctx context.Context, r *Runner, call func(context.Context, *client.Client) (T, error)) (T, error) {
	excluded := make([]bool, len(r.nodes))
	var zero T
	var lastErr error
	for range r.nodes {
		n := r.pick(excluded)
		if n == nil {
			break
		}
		out, err := call(ctx, n.c)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return zero, err
		}
		excluded[n.index] = true
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("fleet: no nodes")
	}
	return zero, lastErr
}
