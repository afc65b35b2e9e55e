package scenario

import (
	"sort"
	"sync"
	"time"

	"phonocmap/internal/core"
)

// TraceEvent is one incumbent improvement of one island. Island, Evals
// and Score are deterministic in the spec (improvements are island-local
// and seeded); AtMs is wall-clock and execution-local, outside the
// local/remote equivalence contract.
type TraceEvent struct {
	Island int        `json:"island"`
	Evals  int        `json:"evals"`
	Score  core.Score `json:"score"`
	// AtMs is milliseconds from run start to the improvement.
	AtMs float64 `json:"at_ms,omitempty"`
}

// IslandSpan summarizes one island's share of a run.
type IslandSpan struct {
	Island int `json:"island"`
	// Evals is the island's final evaluation count; Improvements counts
	// its incumbent improvements. Both are deterministic in the spec.
	Evals        int `json:"evals"`
	Improvements int `json:"improvements"`
	// EvalsPerSec is the island's evaluation throughput over the run's
	// wall clock (islands run concurrently, so they share one span).
	// Execution-local.
	EvalsPerSec float64 `json:"evals_per_sec,omitempty"`
}

// RunTrace is the span record of one optimization run: the improvement
// timeline, per-island spans, and the run's timing. Events and the
// deterministic span fields are identical across execution backends for
// equal specs; AtMs, TimeToBestMs, DurationMs and the throughput fields
// are wall-clock measurements of the run that actually executed (a
// cache replay reports the original run's values verbatim).
type RunTrace struct {
	Events  []TraceEvent `json:"events,omitempty"`
	Islands []IslandSpan `json:"islands,omitempty"`
	// TimeToBestMs is when the final incumbent was first reached.
	TimeToBestMs float64 `json:"time_to_best_ms,omitempty"`
	DurationMs   float64 `json:"duration_ms,omitempty"`
	EvalsPerSec  float64 `json:"evals_per_sec,omitempty"`
}

// AssembleTrace builds the span record from an improvement timeline (in
// arrival order), the per-island evaluation breakdown and the run's
// duration — the one assembly path behind every backend's trace, so it
// cannot drift between them. Events are returned sorted by (island,
// evals), which is deterministic in the spec; TimeToBestMs is computed
// from the arrival order before sorting.
func AssembleTrace(events []TraceEvent, islandEvals []int, durationMs float64) *RunTrace {
	t := &RunTrace{DurationMs: durationMs}

	// Arrival order is chronological: the moment the final incumbent was
	// first reached is the AtMs of the last event that improved the
	// global best.
	var best *core.Score
	for _, ev := range events {
		if best == nil || ev.Score.Better(*best) {
			b := ev.Score
			best = &b
			t.TimeToBestMs = ev.AtMs
		}
	}

	t.Events = append([]TraceEvent(nil), events...)
	sort.SliceStable(t.Events, func(i, j int) bool {
		if t.Events[i].Island != t.Events[j].Island {
			return t.Events[i].Island < t.Events[j].Island
		}
		return t.Events[i].Evals < t.Events[j].Evals
	})

	improvements := make(map[int]int, len(islandEvals))
	for _, ev := range t.Events {
		improvements[ev.Island]++
	}
	total := 0
	secs := durationMs / 1000
	for i, evals := range islandEvals {
		total += evals
		span := IslandSpan{Island: i, Evals: evals, Improvements: improvements[i]}
		if secs > 0 {
			span.EvalsPerSec = float64(evals) / secs
		}
		t.Islands = append(t.Islands, span)
	}
	if secs > 0 {
		t.EvalsPerSec = float64(total) / secs
	}
	return t
}

// Tracer records one run's progress for Execute: the improvement
// timeline, each island's evaluation count and the best score so far.
// It is safe for concurrent use by all islands and readable while the
// run is in flight, which is how the service reports live progress.
type Tracer struct {
	start time.Time

	mu          sync.Mutex
	events      []TraceEvent
	islandEvals []int
	best        core.Score
}

// NewTracer returns a tracer for a run with the given island count
// (clamped to 1), with the clock starting now.
func NewTracer(islands int) *Tracer {
	//phonocmap:wallclock the tracer's epoch only feeds TraceEvent.AtMs, which is stripped (with all wall-clock fields) before differential comparison
	return &Tracer{start: time.Now(), islandEvals: make([]int, max(islands, 1))}
}

func (t *Tracer) onProgress(island, evals int, _ core.Score) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if island >= 0 && island < len(t.islandEvals) {
		t.islandEvals[island] = evals
	}
}

func (t *Tracer) onImprove(island, evals int, best core.Score) {
	//phonocmap:wallclock AtMs is the trace's human timeline, not a contract field; equivalence tests strip it
	at := float64(time.Since(t.start)) / float64(time.Millisecond)
	t.mu.Lock()
	defer t.mu.Unlock()
	if island >= 0 && island < len(t.islandEvals) {
		t.islandEvals[island] = evals
	}
	if len(t.events) == 0 || best.Better(t.best) {
		t.best = best
	}
	t.events = append(t.events, TraceEvent{Island: island, Evals: evals, Score: best, AtMs: at})
}

// IslandEvals copies the per-island evaluation counters.
func (t *Tracer) IslandEvals() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]int(nil), t.islandEvals...)
}

// Progress sums the per-island evaluation counters and returns the best
// score reached so far (ok false before the first improvement), copying
// neither.
func (t *Tracer) Progress() (evals int, best core.Score, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.islandEvals {
		evals += e
	}
	return evals, t.best, len(t.events) > 0
}

// Events copies the improvements recorded so far, in arrival order.
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}
