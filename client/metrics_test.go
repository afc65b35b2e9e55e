package client

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phonocmap/internal/config"
	"phonocmap/internal/scenario"
	"phonocmap/internal/service"
)

// heldBackend serves a phonocmap-serve whose one worker is held by a
// blocker job until a job submitted through the returned URL has had
// its 202 built. That job is therefore queued when its submission
// returns: a job that had already finished would leave the client
// nothing to wait for, and the wait is what the metrics tests observe.
// wrap, when non-nil, sits in front of the service's handler.
func heldBackend(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	srv := service.New(service.Config{Workers: 1, MaxBudget: math.MaxInt32})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	inner := srv.Handler()
	// The blocker's budget would take hours; it ends only when cancelled.
	rec := httptest.NewRecorder()
	inner.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(fmt.Sprintf(`{"app":{"builtin":"VOPD"},"algorithm":"rs","budget":%d}`, math.MaxInt32))))
	var blocker service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &blocker); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("blocker submission: %d %s (%v)", rec.Code, rec.Body, err)
	}
	var front http.Handler = inner
	if wrap != nil {
		front = wrap(inner)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		front.ServeHTTP(w, r)
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			// The job's 202 is built, with the job queued behind the
			// blocker: free the worker for it.
			inner.ServeHTTP(httptest.NewRecorder(),
				httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+blocker.ID, nil))
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestMetricsPollRounds: with the event stream disabled, waiting on a
// job is pure polling — the poll-round counter must record it, and the
// other counters must stay silent on a healthy conversation.
func TestMetricsPollRounds(t *testing.T) {
	c, err := New(heldBackend(t, nil), WithPollInterval(time.Millisecond), WithoutEvents())
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.Spec{
		App: config.AppSpec{Builtin: "PIP"}, Algorithm: "rs", Budget: 500, Seed: 1,
	}
	if _, err := c.RunScenario(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.PollRounds < 1 {
		t.Errorf("poll rounds = %d, want >= 1", m.PollRounds)
	}
	if m.SSEFallbacks != 0 {
		t.Errorf("sse fallbacks = %d, want 0 (events were disabled, not abandoned)", m.SSEFallbacks)
	}
	if m.Retries != 0 {
		t.Errorf("retries = %d, want 0 on a healthy server", m.Retries)
	}
}

// TestMetricsSSEFallback: when the event stream is unusable (here: a
// proxy-like layer that rejects it), the client falls back to polling
// and counts the abandoned stream.
func TestMetricsSSEFallback(t *testing.T) {
	base := heldBackend(t, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/events") {
				http.Error(w, "stream not supported here", http.StatusNotFound)
				return
			}
			inner.ServeHTTP(w, r)
		})
	})
	c, err := New(base, WithPollInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.Spec{
		App: config.AppSpec{Builtin: "PIP"}, Algorithm: "rs", Budget: 500, Seed: 2,
	}
	if _, err := c.RunScenario(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.SSEFallbacks != 1 {
		t.Errorf("sse fallbacks = %d, want 1", m.SSEFallbacks)
	}
	if m.PollRounds < 1 {
		t.Errorf("poll rounds = %d, want >= 1 after the fallback", m.PollRounds)
	}
}

// TestMetricsRetries: gateway-style failures on an idempotent call are
// retried with backoff, one counter tick per backoff-and-repeat cycle.
func TestMetricsRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "bad gateway", http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`[]`))
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, WithRetries(4, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apps(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}
