package service

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestErrorEnvelopeCodes: every failure class answers with the
// structured envelope and its machine-readable code — the contract the
// client SDK branches on.
func TestErrorEnvelopeCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantHTTP int
		wantCode ErrorCode
	}{
		{"malformed json", http.MethodPost, "/v1/jobs", `{`, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown field", http.MethodPost, "/v1/jobs", `{"app":{"builtin":"PIP"},"bogus":1}`, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown app", http.MethodPost, "/v1/jobs", `{"app":{"builtin":"NOPE"}}`, http.StatusBadRequest, CodeInvalidSpec},
		{"unknown job", http.MethodGet, "/v1/jobs/job-999999", "", http.StatusNotFound, CodeNotFound},
		{"unknown job result", http.MethodGet, "/v1/jobs/job-999999/result", "", http.StatusNotFound, CodeNotFound},
		{"unknown job events", http.MethodGet, "/v1/jobs/job-999999/events", "", http.StatusNotFound, CodeNotFound},
		{"unknown sweep", http.MethodGet, "/v1/sweeps/sweep-999999", "", http.StatusNotFound, CodeNotFound},
		{"bad list status", http.MethodGet, "/v1/jobs?status=bogus", "", http.StatusBadRequest, CodeInvalidRequest},
		{"bad list limit", http.MethodGet, "/v1/jobs?limit=x", "", http.StatusBadRequest, CodeInvalidRequest},
		{"bad sweep list status", http.MethodGet, "/v1/sweeps?status=bogus", "", http.StatusBadRequest, CodeInvalidRequest},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Errorf("%s: body is not an error envelope: %v", c.name, err)
			continue
		}
		if resp.StatusCode != c.wantHTTP {
			t.Errorf("%s: HTTP %d, want %d", c.name, resp.StatusCode, c.wantHTTP)
		}
		if env.Error.Code != c.wantCode {
			t.Errorf("%s: code %q, want %q", c.name, env.Error.Code, c.wantCode)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}
}

// TestNoResultEnvelope: a job that failed (or was cancelled before any
// evaluation) answers its result endpoint with the no_result envelope.
func TestNoResultEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBudget: 100_000_000})
	base := ts.URL

	// Occupy the single worker so the next job stays queued, then cancel
	// it there: cancelled before any evaluation, so no result exists.
	long := Request{Spec: Spec{Algorithm: "rs", Budget: 50_000_000, Seed: 1}}
	long.App.Builtin = "VOPD"
	var blocker JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", long, &blocker); code != http.StatusAccepted {
		t.Fatalf("blocker submit returned %d", code)
	}
	queued := long
	queued.Seed = 2
	var victim JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", queued, &victim); code != http.StatusAccepted {
		t.Fatalf("victim submit returned %d", code)
	}
	doJSON(t, http.MethodDelete, base+"/v1/jobs/"+victim.ID, nil, nil)
	pollUntil(t, base, victim.ID, 10*time.Second, func(st JobStatus) bool { return st.State.Terminal() })

	resp, err := http.Get(base + "/v1/jobs/" + victim.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("result body is not an envelope: %v", err)
	}
	if resp.StatusCode != http.StatusConflict || env.Error.Code != CodeNoResult {
		t.Errorf("got HTTP %d code %q, want 409 %q", resp.StatusCode, env.Error.Code, CodeNoResult)
	}
	doJSON(t, http.MethodDelete, base+"/v1/jobs/"+blocker.ID, nil, nil)
}

// TestListFilters: ?status= and ?limit= restrict the job listing to the
// most recent matching entries.
func TestListFilters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	req := Request{Spec: Spec{Algorithm: "rs", Budget: 60}}
	req.App.Builtin = "PIP"
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		req.Seed = seed
		var st JobStatus
		if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &st); code != http.StatusAccepted {
			t.Fatalf("submit returned %d", code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		pollUntil(t, base, id, 30*time.Second, func(st JobStatus) bool { return st.State.Terminal() })
	}

	var all []JobStatus
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs?status=done", nil, &all); code != http.StatusOK {
		t.Fatalf("status filter returned %d", code)
	}
	if len(all) != 3 {
		t.Errorf("done filter matched %d jobs, want 3", len(all))
	}

	var none []JobStatus
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs?status=failed", nil, &none); code != http.StatusOK {
		t.Fatalf("failed filter returned %d", code)
	}
	if len(none) != 0 {
		t.Errorf("failed filter matched %d jobs, want 0", len(none))
	}

	var capped []JobStatus
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs?status=done&limit=2", nil, &capped); code != http.StatusOK {
		t.Fatalf("limit filter returned %d", code)
	}
	if len(capped) != 2 {
		t.Fatalf("limit=2 returned %d jobs", len(capped))
	}
	// The cap keeps the most recent submissions.
	if capped[0].ID != ids[1] || capped[1].ID != ids[2] {
		t.Errorf("limit kept %s,%s, want the most recent %s,%s",
			capped[0].ID, capped[1].ID, ids[1], ids[2])
	}

	// The sweep listing shares the same filter (an empty registry with a
	// valid filter is simply empty).
	var sweeps []SweepStatus
	if code := doJSON(t, http.MethodGet, base+"/v1/sweeps?status=done&limit=5", nil, &sweeps); code != http.StatusOK {
		t.Fatalf("sweep filter returned %d", code)
	}
	if len(sweeps) != 0 {
		t.Errorf("empty sweep registry listed %d sweeps", len(sweeps))
	}
}

// TestJobEventsStream: the SSE endpoint streams status snapshots and
// terminates with the terminal one.
func TestJobEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBudget: 10_000_000})
	base := ts.URL

	req := Request{Spec: Spec{Algorithm: "rs", Budget: 150_000, Seed: 1}}
	req.App.Builtin = "VOPD"
	var st JobStatus
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}

	resp, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("events content type %q", ct)
	}

	var events []JobStatus
	sc := bufio.NewScanner(resp.Body)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && data != "":
			var ev JobStatus
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", data, err)
			}
			events = append(events, ev)
			data = ""
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Errorf("stream ended in state %q, want done", last.State)
	}
	if last.Evals == 0 {
		t.Error("terminal event reports zero evaluations")
	}
	// Evaluation counts are monotone along the stream.
	for i := 1; i < len(events); i++ {
		if events[i].Evals < events[i-1].Evals {
			t.Errorf("evals regressed at event %d: %d -> %d", i, events[i-1].Evals, events[i].Evals)
		}
	}
	// The streamed terminal snapshot matches a regular status poll.
	var polled JobStatus
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+st.ID, nil, &polled); code != http.StatusOK {
		t.Fatalf("status poll returned %d", code)
	}
	if polled.Evals != last.Evals || polled.State != last.State {
		t.Errorf("stream end (%s, %d evals) != polled status (%s, %d evals)",
			last.State, last.Evals, polled.State, polled.Evals)
	}
}

// TestHealthzVersion: the health payload carries a non-empty build
// version.
func TestHealthzVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var h Health
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if h.Version == "" {
		t.Error("healthz reports an empty version")
	}
}

// TestWriteJSONUnencodable: a value encoding/json cannot encode is
// answered with the internal envelope, never with the requested 2xx
// status and an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.NaN())
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q is not an error envelope: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || env.Error.Code != CodeInternal || env.Error.Message == "" {
		t.Errorf("got HTTP %d %+v, want 500 %s with a message", rec.Code, env.Error, CodeInternal)
	}
}
