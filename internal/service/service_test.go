package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"phonocmap/internal/scenario"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// pollUntil polls the job status until pred is satisfied or the deadline
// passes, returning the final status and every state observed.
func pollUntil(t *testing.T, base, id string, timeout time.Duration, pred func(JobStatus) bool) (JobStatus, map[State]bool) {
	t.Helper()
	seen := make(map[State]bool)
	deadline := time.Now().Add(timeout)
	for {
		var st JobStatus
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("status poll returned %d", code)
		}
		seen[st.State] = true
		if pred(st) {
			return st, seen
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach target state in %v (last: %+v)", id, timeout, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestEndToEndVOPD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	req := Request{Objective: "snr", Algorithm: "rpbla", Budget: 3000, Seed: 1}
	req.App.Builtin = "VOPD"

	var submitted JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", code)
	}
	if submitted.State != StateQueued {
		t.Errorf("fresh job state %q, want queued", submitted.State)
	}
	if submitted.Spec.Arch.Width != 4 || submitted.Spec.Arch.Height != 4 {
		t.Errorf("VOPD should default to a 4x4 mesh, got %dx%d", submitted.Spec.Arch.Width, submitted.Spec.Arch.Height)
	}

	final, _ := pollUntil(t, base, submitted.ID, 60*time.Second, func(st JobStatus) bool {
		return st.State.Terminal()
	})
	if final.State != StateDone {
		t.Fatalf("job finished %q (error %q), want done", final.State, final.Error)
	}
	if final.Evals == 0 {
		t.Error("finished job reports zero evaluations")
	}

	var res JobResult
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+submitted.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result returned %d, want 200", code)
	}
	if math.IsInf(res.Score.WorstSNRDB, 0) || math.IsNaN(res.Score.WorstSNRDB) || res.Score.WorstSNRDB == 0 {
		t.Errorf("worst-case SNR %v not finite/nonzero", res.Score.WorstSNRDB)
	}
	if len(res.Mapping) != 16 {
		t.Errorf("VOPD mapping has %d tasks, want 16", len(res.Mapping))
	}
	if res.Cached {
		t.Error("first submission claims to be cached")
	}

	// A second identical POST must be answered from the cache, already
	// done, with the identical score.
	var second JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &second); code != http.StatusOK {
		t.Fatalf("cached submit returned %d, want 200", code)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second submission state=%q cached=%v, want done/true", second.State, second.Cached)
	}
	var res2 JobResult
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+second.ID+"/result", nil, &res2); code != http.StatusOK {
		t.Fatalf("cached result returned %d, want 200", code)
	}
	if res2.Score != res.Score {
		t.Errorf("cached score %+v != original %+v", res2.Score, res.Score)
	}
	if !res2.Cached {
		t.Error("cached result not flagged cached")
	}

	// The convergence trace of the original run is non-empty.
	var tr JobTrace
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+submitted.ID+"/trace", nil, &tr); code != http.StatusOK {
		t.Fatalf("trace returned %d", code)
	}
	if len(tr.Trace) == 0 {
		t.Error("empty convergence trace")
	}
	for i := 1; i < len(tr.Trace); i++ {
		if tr.Trace[i].Score.Cost > tr.Trace[i-1].Score.Cost {
			t.Errorf("trace not monotone at %d: %v -> %v", i, tr.Trace[i-1].Score.Cost, tr.Trace[i].Score.Cost)
		}
	}
}

func TestIslandsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	base := ts.URL

	// 1234 is deliberately not a multiple of the progress stride, so this
	// also checks that the final per-island eval counts are reported
	// exactly rather than left at the last heartbeat.
	req := Request{Algorithm: "rs", Budget: 1234, Seed: 1, Seeds: 3}
	req.App.Builtin = "PIP"
	var submitted JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if submitted.Budget != 3*1234 {
		t.Errorf("islands budget %d, want %d", submitted.Budget, 3*1234)
	}
	final, _ := pollUntil(t, base, submitted.ID, 60*time.Second, func(st JobStatus) bool { return st.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("islands job finished %q (error %q)", final.State, final.Error)
	}
	if final.Evals != final.Budget {
		t.Errorf("finished islands job reports %d/%d evals; final progress not recorded", final.Evals, final.Budget)
	}
	var res JobResult
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+submitted.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}
	if res.Evals != 1234 {
		t.Errorf("winning island spent %d evals, want 1234", res.Evals)
	}
	if len(final.IslandEvals) != 3 {
		t.Fatalf("live islands status reports %d islands, want 3 (%v)", len(final.IslandEvals), final.IslandEvals)
	}
	for i, e := range final.IslandEvals {
		if e != 1234 {
			t.Errorf("island %d spent %d evals, want 1234", i, e)
		}
	}

	// A cached replay must report the same totals AND the same per-island
	// shape as the live run — a hit for a multi-seed spec must not
	// collapse the breakdown into a single pseudo-island.
	var cached JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &cached); code != http.StatusOK {
		t.Fatalf("cached submit returned %d", code)
	}
	if !cached.Cached || cached.Evals != final.Evals || cached.Budget != final.Budget {
		t.Errorf("cached islands status (cached=%v evals=%d budget=%d) != live (%d/%d)",
			cached.Cached, cached.Evals, cached.Budget, final.Evals, final.Budget)
	}
	if len(cached.IslandEvals) != len(final.IslandEvals) {
		t.Fatalf("cached replay reports %d islands, live run reported %d",
			len(cached.IslandEvals), len(final.IslandEvals))
	}
	for i := range cached.IslandEvals {
		if cached.IslandEvals[i] != final.IslandEvals[i] {
			t.Errorf("cached island %d evals %d != live %d", i, cached.IslandEvals[i], final.IslandEvals[i])
		}
	}
}

func TestCancelInFlightJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBudget: 100_000_000})
	base := ts.URL

	req := Request{Algorithm: "rs", Budget: 50_000_000, Seed: 1}
	req.App.Builtin = "VOPD"
	var submitted JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	// Wait for it to actually start.
	pollUntil(t, base, submitted.ID, 30*time.Second, func(st JobStatus) bool { return st.State == StateRunning })

	var afterCancel JobStatus
	if code := doJSON(t, http.MethodDelete, base+"/v1/jobs/"+submitted.ID, nil, &afterCancel); code != http.StatusOK {
		t.Fatalf("cancel returned %d", code)
	}
	final, _ := pollUntil(t, base, submitted.ID, 10*time.Second, func(st JobStatus) bool { return st.State.Terminal() })
	if final.State != StateCancelled {
		t.Fatalf("job finished %q, want cancelled", final.State)
	}
	if final.Evals >= 50_000_000 {
		t.Error("cancelled job claims to have spent the whole budget")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBudget: 100_000_000})
	base := ts.URL

	// Occupy the single worker.
	blocker := Request{Algorithm: "rs", Budget: 50_000_000, Seed: 1}
	blocker.App.Builtin = "VOPD"
	var b1 JobStatus
	doJSON(t, http.MethodPost, base+"/v1/jobs", blocker, &b1)

	queued := Request{Algorithm: "rs", Budget: 50_000_000, Seed: 2}
	queued.App.Builtin = "VOPD"
	var b2 JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", queued, &b2); code != http.StatusAccepted {
		t.Fatalf("second submit returned %d", code)
	}

	var cancelled JobStatus
	doJSON(t, http.MethodDelete, base+"/v1/jobs/"+b2.ID, nil, &cancelled)
	if cancelled.State != StateCancelled {
		t.Fatalf("queued job state after cancel %q, want cancelled", cancelled.State)
	}
	// Clean up the blocker too so shutdown is fast.
	doJSON(t, http.MethodDelete, base+"/v1/jobs/"+b1.ID, nil, nil)
}

func TestShutdownCancelsRunningJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxBudget: 100_000_000})
	base := ts.URL

	req := Request{Algorithm: "rs", Budget: 50_000_000, Seed: 1}
	req.App.Builtin = "VOPD"
	var submitted JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	pollUntil(t, base, submitted.ID, 30*time.Second, func(st JobStatus) bool { return st.State == StateRunning })

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain in time: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("shutdown took %v", elapsed)
	}

	// The handler still serves reads after shutdown; the job must have
	// been cancelled by context propagation, not left running.
	var st JobStatus
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+submitted.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("status after shutdown returned %d", code)
	}
	if st.State != StateCancelled {
		t.Errorf("job state after shutdown %q, want cancelled", st.State)
	}

	// New submissions are refused.
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown returned %d, want 503", code)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	cases := []struct {
		name string
		body string
	}{
		{"unknown app", `{"app":{"builtin":"NOPE"}}`},
		{"unknown algorithm", `{"app":{"builtin":"PIP"},"algorithm":"nope"}`},
		{"unknown objective", `{"app":{"builtin":"PIP"},"objective":"nope"}`},
		{"negative budget", `{"app":{"builtin":"PIP"},"budget":-5}`},
		{"budget too large", `{"app":{"builtin":"PIP"},"budget":999999999}`},
		{"seeds too large", `{"app":{"builtin":"PIP"},"seeds":1000}`},
		{"unknown field", `{"app":{"builtin":"PIP"},"bogus":1}`},
		{"app too big for arch", `{"app":{"builtin":"VOPD"},"arch":{"topology":"mesh","width":2,"height":2}}`},
		{"malformed json", `{`},
	}
	for _, c := range cases {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", c.name, resp.StatusCode)
		}
	}

	resp, err := http.Get(base + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: got %d, want 404", resp.StatusCode)
	}
}

func TestQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, MaxBudget: 100_000_000})
	base := ts.URL

	req := Request{Algorithm: "rs", Budget: 50_000_000}
	req.App.Builtin = "VOPD"
	var ids []string
	full := false
	for i := 0; i < 8; i++ {
		req.Seed = int64(i + 1) // distinct specs dodge the cache
		var raw json.RawMessage
		code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &raw)
		switch code {
		case http.StatusAccepted:
			var st JobStatus
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		case http.StatusTooManyRequests:
			full = true
		default:
			t.Fatalf("submit %d returned %d", i, code)
		}
		if full {
			break
		}
	}
	if !full {
		t.Error("bounded queue never refused a submission")
	}
	for _, id := range ids {
		doJSON(t, http.MethodDelete, base+"/v1/jobs/"+id, nil, nil)
	}
}

func TestDiscoveryAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueSize: 7})
	base := ts.URL

	var apps []scenario.AppInfo
	if code := doJSON(t, http.MethodGet, base+"/v1/apps", nil, &apps); code != http.StatusOK {
		t.Fatalf("apps returned %d", code)
	}
	found := false
	for _, a := range apps {
		if a.Name == "VOPD" && a.Tasks == 16 {
			found = true
		}
	}
	if !found {
		t.Errorf("VOPD missing from /v1/apps: %+v", apps)
	}

	var algos []string
	if code := doJSON(t, http.MethodGet, base+"/v1/algorithms", nil, &algos); code != http.StatusOK {
		t.Fatalf("algorithms returned %d", code)
	}
	if len(algos) == 0 || algos[0] != "rs" {
		t.Errorf("unexpected algorithm list %v", algos)
	}

	var h Health
	if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if h.Status != "ok" || h.Workers != 2 || h.QueueCapacity != 7 {
		t.Errorf("unexpected health payload %+v", h)
	}
}

// TestHealthzEvalCounters: /healthz reports evaluation throughput — the
// service's effective search capacity under the equal-budget protocol.
// Real runs add their evaluations; cache replays do not.
func TestHealthzEvalCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	base := ts.URL

	var h0 Health
	if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &h0); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if h0.TotalEvals != 0 {
		t.Errorf("fresh server reports %d evals", h0.TotalEvals)
	}

	req := Request{Algorithm: "rs", Budget: 400, Seed: 3}
	req.App.Builtin = "PIP"
	var st JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	final, _ := pollUntil(t, base, st.ID, 30*time.Second, func(s JobStatus) bool { return s.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("job finished %q", final.State)
	}

	var h1 Health
	if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &h1); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if h1.TotalEvals != 400 {
		t.Errorf("total_evals = %d after a 400-eval run", h1.TotalEvals)
	}
	if h1.EvalsPerSec <= 0 {
		t.Errorf("evals_per_sec = %v, want > 0", h1.EvalsPerSec)
	}
	if h1.UptimeSec <= 0 {
		t.Errorf("uptime_sec = %v, want > 0", h1.UptimeSec)
	}

	// An identical second submission is served from the cache: no new
	// evaluations.
	var st2 JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &st2); code != http.StatusOK {
		t.Fatalf("cached submit returned %d", code)
	}
	var h2 Health
	if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &h2); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if h2.TotalEvals != 400 {
		t.Errorf("cache hit changed total_evals: %d", h2.TotalEvals)
	}
}

// TestHealthzRateGuard: evals_per_sec divides by a clamped uptime
// (>= 1s), so a burst of work right after startup can never report a
// rate above the absolute evaluation count — the near-zero-denominator
// spike is structurally impossible.
func TestHealthzRateGuard(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	base := ts.URL

	// Fresh server: zero evals, zero rate, regardless of uptime.
	var h0 Health
	if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &h0); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if h0.EvalsPerSec != 0 {
		t.Errorf("fresh server evals_per_sec = %v, want 0", h0.EvalsPerSec)
	}

	// Finish a quick job well inside the first second of uptime; the
	// clamp caps the reported rate at total_evals / 1s.
	req := Request{Algorithm: "rs", Budget: 500, Seed: 8}
	req.App.Builtin = "PIP"
	var st JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	pollUntil(t, base, st.ID, 30*time.Second, func(s JobStatus) bool { return s.State.Terminal() })

	var h1 Health
	if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &h1); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if h1.EvalsPerSec > float64(h1.TotalEvals) {
		t.Errorf("evals_per_sec %v exceeds total_evals %d: uptime denominator not clamped",
			h1.EvalsPerSec, h1.TotalEvals)
	}
	if h1.TotalEvals > 0 && h1.EvalsPerSec <= 0 {
		t.Errorf("evals_per_sec = %v with %d total evals", h1.EvalsPerSec, h1.TotalEvals)
	}
}

func TestNoCacheBypassesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	req := Request{Algorithm: "rs", Budget: 300, Seed: 5, NoCache: true}
	req.App.Builtin = "PIP"
	for i := 0; i < 2; i++ {
		var st JobStatus
		if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &st); code != http.StatusAccepted {
			t.Fatalf("no_cache submit %d returned %d (cached hit?)", i, code)
		}
		final, _ := pollUntil(t, base, st.ID, 30*time.Second, func(s JobStatus) bool { return s.State.Terminal() })
		if final.State != StateDone {
			t.Fatalf("job finished %q", final.State)
		}
	}
}

func TestSpecKeyStability(t *testing.T) {
	req := Request{Algorithm: "rpbla", Budget: 100, Seed: 1}
	req.App.Builtin = "PIP"
	s1, err := normalize(req, Limits{MaxBudget: 1000, MaxSeeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := normalize(req, Limits{MaxBudget: 1000, MaxSeeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Key() != s2.Key() {
		t.Error("identical requests produced different keys")
	}
	req2 := req
	req2.Seed = 2
	s3, err := normalize(req2, Limits{MaxBudget: 1000, MaxSeeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Key() == s1.Key() {
		t.Error("different seeds collide")
	}
	if _, err := scenario.Compile(s1); err != nil {
		t.Fatalf("compile on a normalized spec: %v", err)
	}
}

func TestResultBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBudget: 100_000_000})
	base := ts.URL
	req := Request{Algorithm: "rs", Budget: 50_000_000, Seed: 9}
	req.App.Builtin = "VOPD"
	var st JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil, nil)
	if code != http.StatusAccepted {
		t.Errorf("result of unfinished job returned %d, want 202", code)
	}
	doJSON(t, http.MethodDelete, base+"/v1/jobs/"+st.ID, nil, nil)
}
