package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// sseInterval is the sampling stride of the job event stream: snapshots
// are compared at this cadence and emitted only when something changed,
// so an idle long run costs no bandwidth between heartbeat-driven
// progress updates.
const sseInterval = 100 * time.Millisecond

// handleEvents serves GET /v1/jobs/{id}/events: a Server-Sent Events
// stream of JobStatus snapshots. The stream opens with the current
// status, emits a "status" event whenever the job's state, evaluation
// count, incumbent or error changes, and ends with the terminal
// snapshot — a push alternative to polling GET /v1/jobs/{id} that makes
// remote runs as observable as local ones.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "unknown job", nil)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, CodeUnsupported, "response writer cannot stream", nil)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	// Tell buffering reverse proxies (nginx et al.) to pass events
	// through as they are written.
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	emit := func(st JobStatus) bool {
		b, err := json.Marshal(st)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: status\ndata: %s\n\n", b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	last := j.status()
	if !emit(last) || last.State.Terminal() {
		return
	}
	ticker := time.NewTicker(sseInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			// Server shutdown: emit the latest snapshot and close the
			// stream so the connection goes idle for the listener drain.
			emit(j.status())
			return
		case <-j.Done():
			emit(j.status())
			return
		case <-ticker.C:
			st := j.status()
			if statusChanged(last, st) {
				if !emit(st) {
					return
				}
				last = st
			}
			if st.State.Terminal() {
				return
			}
		}
	}
}

// statusChanged reports whether two status snapshots differ in anything
// a stream consumer acts on.
func statusChanged(a, b JobStatus) bool {
	if a.State != b.State || a.Evals != b.Evals || a.Error != b.Error {
		return true
	}
	if (a.Best == nil) != (b.Best == nil) {
		return true
	}
	return a.Best != nil && *a.Best != *b.Best
}
