package service

import "net/http"

// ErrorCode is a machine-readable error classification, stable across
// releases so clients can branch on it without parsing English prose.
type ErrorCode string

const (
	// CodeInvalidRequest marks a request the decoder rejected before any
	// spec-level validation ran: malformed JSON, unknown fields, an
	// oversized body, or an unparseable query parameter.
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeInvalidSpec marks a well-formed request whose spec failed
	// normalization, validation or compilation (unknown app, objective or
	// algorithm, out-of-range budget, application too big for the
	// architecture, oversized sweep grid, ...).
	CodeInvalidSpec ErrorCode = "invalid_spec"
	// CodeNotFound marks a job or sweep id the registry does not know
	// (possibly evicted).
	CodeNotFound ErrorCode = "not_found"
	// CodeQueueFull marks a submission shed by admission control: the job
	// queue is at capacity or too many sweeps are in flight. The request
	// was valid; retrying after a backoff is the intended response.
	CodeQueueFull ErrorCode = "queue_full"
	// CodeShuttingDown marks a submission refused because the server is
	// draining; unlike queue_full, retrying against this instance is
	// pointless.
	CodeShuttingDown ErrorCode = "shutting_down"
	// CodeNoResult marks a result request for a job that reached a
	// terminal state without producing one (failed, or cancelled before
	// any evaluation).
	CodeNoResult ErrorCode = "no_result"
	// CodeUnsupported marks a request the transport cannot satisfy, e.g.
	// an SSE stream over a connection that cannot flush.
	CodeUnsupported ErrorCode = "unsupported"
	// CodeInternal marks a response the server failed to encode: a
	// server bug, not a fault of the request.
	CodeInternal ErrorCode = "internal"
)

// ErrorDetail is the body of the structured error envelope.
type ErrorDetail struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// Details carries optional machine-readable context, e.g. the queue
	// capacity behind a queue_full or the offending cell of a sweep.
	Details map[string]any `json:"details,omitempty"`
}

// ErrorEnvelope is the wire shape of every non-2xx response:
//
//	{"error": {"code": "invalid_spec", "message": "...", "details": {...}}}
//
// Handlers emit it exclusively, so clients need exactly one decode path
// for failures.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// httpStatus maps an error code to its canonical HTTP status.
func (c ErrorCode) httpStatus() int {
	switch c {
	case CodeInvalidRequest, CodeInvalidSpec:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeShuttingDown:
		return http.StatusServiceUnavailable
	case CodeNoResult:
		return http.StatusConflict
	case CodeUnsupported:
		return http.StatusNotImplemented
	default:
		return http.StatusInternalServerError
	}
}

// writeError emits the structured error envelope with the code's
// canonical HTTP status.
func writeError(w http.ResponseWriter, code ErrorCode, message string, details map[string]any) {
	writeJSON(w, code.httpStatus(), ErrorEnvelope{Error: ErrorDetail{
		Code:    code,
		Message: message,
		Details: details,
	}})
}
