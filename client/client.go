// Package client is the typed Go SDK for phonocmap-serve: it implements
// the same Runner execution interface as the in-process backend
// (phonocmap.NewLocalRunner), against a remote server. Jobs and sweeps
// are submitted over the service's JSON API; progress arrives through
// the server's SSE event stream (with transparent fallback to polling
// with exponential backoff); context cancellation propagates to the
// server as a DELETE; queue-full rejections and transient failures of
// idempotent calls are retried with backoff; and every server error is
// decoded from the structured error envelope into a typed *APIError.
//
// The contract: for equal specs, a Client returns results identical to
// local execution — mappings, scores, evaluation counts, per-island
// breakdowns and analysis reports — because the server runs the same
// scenario compiler and sweep engine. The differential suite in this
// package enforces that equivalence against a live server handler.
//
//	c, err := client.New("http://localhost:8080")
//	res, err := c.RunScenario(ctx, spec)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"phonocmap/internal/runner"
	"phonocmap/internal/scenario"
	"phonocmap/internal/service"
	"phonocmap/internal/version"
)

// maxErrorBody bounds how much of an error response is read while
// decoding the envelope (and echoed back when the envelope is
// malformed).
const maxErrorBody = 64 << 10

// APIError is a non-2xx server response, decoded from the service's
// structured error envelope. When a server (or an intermediary proxy)
// answers with something other than the envelope, Code is empty and
// Message carries the raw body text — the fallback keeps every failure
// inspectable.
type APIError struct {
	// StatusCode is the HTTP status of the response.
	StatusCode int
	// Code is the machine-readable error code (empty when the body was
	// not a valid envelope).
	Code service.ErrorCode
	// Message is the human-readable error message (or the raw body on a
	// malformed envelope).
	Message string
	// Details is the envelope's optional machine-readable context.
	Details map[string]any
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("phonocmap server: %s (%s, HTTP %d)", e.Message, e.Code, e.StatusCode)
	}
	msg := e.Message
	if msg == "" {
		msg = http.StatusText(e.StatusCode)
	}
	return fmt.Sprintf("phonocmap server: HTTP %d: %s", e.StatusCode, msg)
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (default: a
// dedicated client with no global timeout — job waits are bounded by
// the caller's context, not a transport deadline).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithPollInterval sets the initial status poll interval (default
// 50ms); successive polls back off exponentially to the max interval.
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.pollInterval = d
		}
	}
}

// WithMaxPollInterval caps the poll backoff (default 2s).
func WithMaxPollInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.maxPollInterval = d
		}
	}
}

// WithRetries configures transient-failure handling: up to attempts
// extra tries (default 4) starting at backoff (default 100ms, with the
// exponential envelope doubling per attempt and full jitter applied to
// each wait). Idempotent calls retry on transport errors and
// gateway-style 5xx; submissions additionally retry queue_full (429)
// rejections, which are safe to repeat by construction.
func WithRetries(attempts int, backoff time.Duration) Option {
	return func(c *Client) {
		if attempts >= 0 {
			c.retries = attempts
		}
		if backoff > 0 {
			c.retryBackoff = backoff
		}
	}
}

// WithUserAgent overrides the User-Agent header (default
// "phonocmap-client/<build version>").
func WithUserAgent(ua string) Option { return func(c *Client) { c.userAgent = ua } }

// WithoutEvents disables the SSE progress stream; job waits use status
// polling only. (SSE failures already fall back to polling; this option
// skips the attempt, e.g. through a proxy known to buffer streams.)
func WithoutEvents() Option { return func(c *Client) { c.useEvents = false } }

// WithNoCache asks the server to bypass its result cache for every
// submission from this client.
func WithNoCache() Option { return func(c *Client) { c.noCache = true } }

// Client is a phonocmap-serve API client. It is safe for concurrent
// use and implements the Runner interface, so callers written against
// it execute transparently on a remote worker pool.
type Client struct {
	base      string
	hc        *http.Client
	userAgent string

	pollInterval    time.Duration
	maxPollInterval time.Duration
	retries         int
	retryBackoff    time.Duration
	useEvents       bool
	noCache         bool

	// Transport-health counters, exposed through Metrics. They count
	// decisions, not requests: a retry is one backoff-and-repeat, an SSE
	// fallback is one stream abandoned for polling, a poll round is one
	// status GET while waiting on a job or sweep.
	nRetries      atomic.Int64
	nSSEFallbacks atomic.Int64
	nPollRounds   atomic.Int64
}

// Metrics is a snapshot of the client's transport-health counters —
// the SDK-side view of how smoothly the server conversation is going
// (retries climbing means rejections or flaky transport; SSE fallbacks
// mean a buffering proxy; poll rounds quantify wait traffic).
type Metrics struct {
	// Retries counts backoff-and-repeat cycles across all calls.
	Retries int64 `json:"retries"`
	// SSEFallbacks counts event streams abandoned for status polling.
	SSEFallbacks int64 `json:"sse_fallbacks"`
	// PollRounds counts status GETs issued while waiting on jobs and
	// sweeps.
	PollRounds int64 `json:"poll_rounds"`
}

// Metrics returns the client's transport-health counters.
func (c *Client) Metrics() Metrics {
	return Metrics{
		Retries:      c.nRetries.Load(),
		SSEFallbacks: c.nSSEFallbacks.Load(),
		PollRounds:   c.nPollRounds.Load(),
	}
}

var _ runner.Runner = (*Client)(nil)

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad server URL %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("client: server URL %q must be http(s)://host[:port]", baseURL)
	}
	c := &Client{
		base:            strings.TrimRight(u.String(), "/"),
		hc:              &http.Client{},
		userAgent:       version.UserAgent("phonocmap-client"),
		pollInterval:    50 * time.Millisecond,
		maxPollInterval: 2 * time.Second,
		retries:         4,
		retryBackoff:    100 * time.Millisecond,
		useEvents:       true,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// BaseURL returns the normalized server address the client talks to.
func (c *Client) BaseURL() string { return c.base }

// decodeError turns a non-2xx response into an *APIError, falling back
// to the raw body when it is not a valid envelope.
func decodeError(resp *http.Response) *APIError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	apiErr := &APIError{StatusCode: resp.StatusCode}
	var env service.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
		apiErr.Details = env.Error.Details
		return apiErr
	}
	apiErr.Message = strings.TrimSpace(string(body))
	return apiErr
}

// retryable reports whether an *APIError is worth repeating:
// queue_full is the server asking for exactly that, and gateway-style
// statuses are transient by nature. Validation errors, not-found and
// shutting_down are final.
func retryable(err *APIError) bool {
	switch err.Code {
	case service.CodeQueueFull:
		return true
	case "":
		return err.StatusCode == http.StatusBadGateway || err.StatusCode == http.StatusGatewayTimeout
	default:
		return false
	}
}

// do performs one API call with bounded retries, marshalling body (when
// non-nil) and decoding the response into out (when non-nil and the
// status is expectCode). It returns the final response status.
// idempotent additionally retries transport errors; submissions rely on
// the retryable-status rules alone.
func (c *Client) do(ctx context.Context, method, path string, body, out any, expectCode int, idempotent bool) (int, error) {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return 0, fmt.Errorf("client: marshal request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		code, err := c.doOnce(ctx, method, path, payload, out, expectCode)
		if err == nil {
			return code, nil
		}
		lastErr = err
		if ctx.Err() != nil || attempt >= c.retries {
			return code, lastErr
		}
		if apiErr, ok := err.(*APIError); ok {
			if !retryable(apiErr) {
				return code, lastErr
			}
		} else if !idempotent {
			// A transport error on a non-idempotent call: the request may
			// or may not have been accepted; do not repeat it blindly.
			return code, lastErr
		}
		c.nRetries.Add(1)
		select {
		case <-ctx.Done():
			return code, ctx.Err()
		case <-time.After(c.retryDelay(attempt)):
		}
	}
}

// doOnce performs a single HTTP exchange.
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, out any, expectCode int) (int, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("User-Agent", c.userAgent)
	req.Header.Set("Accept", "application/json")
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, decodeError(resp)
	}
	if out != nil && (expectCode == 0 || resp.StatusCode == expectCode) {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("client: decode %s %s response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// Apps lists the server's bundled benchmark applications.
func (c *Client) Apps(ctx context.Context) ([]scenario.AppInfo, error) {
	var out []scenario.AppInfo
	_, err := c.do(ctx, http.MethodGet, "/v1/apps", nil, &out, http.StatusOK, true)
	return out, err
}

// Algorithms lists the server's mapping-optimization algorithms.
func (c *Client) Algorithms(ctx context.Context) ([]string, error) {
	var out []string
	_, err := c.do(ctx, http.MethodGet, "/v1/algorithms", nil, &out, http.StatusOK, true)
	return out, err
}

// Routers lists the server's built-in optical routers.
func (c *Client) Routers(ctx context.Context) ([]scenario.RouterInfo, error) {
	var out []scenario.RouterInfo
	_, err := c.do(ctx, http.MethodGet, "/v1/routers", nil, &out, http.StatusOK, true)
	return out, err
}

// Topologies lists the server's built-in topology kinds.
func (c *Client) Topologies(ctx context.Context) ([]string, error) {
	var out []string
	_, err := c.do(ctx, http.MethodGet, "/v1/topologies", nil, &out, http.StatusOK, true)
	return out, err
}

// Health fetches the server's liveness and pool statistics.
func (c *Client) Health(ctx context.Context) (service.Health, error) {
	var out service.Health
	_, err := c.do(ctx, http.MethodGet, "/healthz", nil, &out, http.StatusOK, true)
	return out, err
}
