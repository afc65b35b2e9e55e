package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// knownCodes are the error codes a client may branch on.
var knownCodes = map[ErrorCode]bool{
	CodeInvalidRequest: true, CodeInvalidSpec: true, CodeNotFound: true, CodeQueueFull: true,
	CodeShuttingDown: true, CodeNoResult: true, CodeUnsupported: true, CodeInternal: true,
}

// FuzzSubmit POSTs arbitrary bytes to /v1/jobs and /v1/sweeps of a small
// in-process server. Every answer must be either a 2xx status whose JSON
// body decodes into the endpoint's status type, or the error envelope
// with a known code and that code's HTTP status: never a panic or an
// empty body. The server's workers are stopped before the first request,
// so the target exercises decoding, limits, compile and admission, and
// no fuzzed job or analysis runs. Its seed corpus is in testdata/fuzz.
func FuzzSubmit(f *testing.F) {
	srv := New(Config{Workers: 1, QueueSize: 2, MaxBudget: 1000, MaxSeeds: 4, MaxSweepCells: 8, MaxSweeps: 8, MaxJobs: 64, CacheSize: 8})
	srv.stop()
	srv.workers.Wait()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	f.Add([]byte(`{"app":{"builtin":"PIP"},"budget":100}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSubmit(t, srv, "/v1/jobs", body, &JobStatus{})
		checkSubmit(t, srv, "/v1/sweeps", body, &SweepStatus{})
		// No worker takes a queued job; cancel it so a full queue does not
		// answer every later job with queue_full.
		for len(srv.queue) > 0 {
			(<-srv.queue).Cancel()
		}
	})
}

// checkSubmit POSTs body to path and checks the answer: a 2xx status
// with a JSON body that decodes strictly into status and names an ID, or
// the error envelope.
func checkSubmit(t *testing.T, srv *Server, path string, body []byte, status any) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	dec.DisallowUnknownFields()
	if rec.Code >= 200 && rec.Code < 300 {
		if err := dec.Decode(status); err != nil {
			t.Fatalf("POST %s answered %d with a body that is not its status: %v\n%s", path, rec.Code, err, rec.Body.Bytes())
		}
		var id struct{ ID string }
		if err := json.Unmarshal(rec.Body.Bytes(), &id); err != nil || id.ID == "" {
			t.Fatalf("POST %s answered %d without an ID:\n%s", path, rec.Code, rec.Body.Bytes())
		}
		return
	}
	var env ErrorEnvelope
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("POST %s answered %d with a body that is not the error envelope: %v\n%q", path, rec.Code, err, rec.Body.Bytes())
	}
	if c := env.Error.Code; !knownCodes[c] || c.httpStatus() != rec.Code || env.Error.Message == "" {
		t.Fatalf("POST %s answered %d with envelope %+v", path, rec.Code, env.Error)
	}
}
