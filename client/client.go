// Package client is the thin Go client of the adawave-serve v1 HTTP
// surface. It speaks the typed DTOs of internal/api — the same types the
// server renders, so client and server cannot drift — and maps the
// structured error envelope back onto the adawave error taxonomy: a
// *client.APIError returned here matches errors.Is against
// adawave.ErrInvalidInput, adawave.ErrNoPoints, adawave.ErrConfigMismatch,
// adawave.ErrCanceled and adawave.ErrDeadlineExceeded according to its wire
// code, so callers branch on the same sentinels whether the engine runs
// in-process or behind HTTP.
//
// Every method is context-first. The context travels two ways: it cancels
// the local HTTP round trip, and — because every server handler threads the
// request context into the engine — hanging up also aborts the server-side
// pipeline at its next shard boundary.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"adawave"
	"adawave/internal/api"
)

// Client talks to one adawave-serve base URL. The zero value is not usable;
// construct with New. A Client is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	apiKey  string
	retries int
}

// retryCap bounds a single backoff wait, however large the server's
// Retry-After hint or the exponential schedule grows.
const retryCap = 30 * time.Second

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport, instrumentation). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithAPIKey sends key as X-API-Key on every request, identifying the
// tenant the server accounts the client's sessions and quotas under.
func WithAPIKey(key string) ClientOption {
	return func(c *Client) { c.apiKey = key }
}

// WithRetry makes the client retry requests rejected with 429
// resource_exhausted — and idempotent requests answered 503 with a
// Retry-After hint, which is how a cluster router signals a failover in
// flight — up to maxRetries times, honoring the server's Retry-After hint
// with jittered exponential backoff capped at 30 s per wait. Only
// replayable requests retry — a streamed CSV upload is consumed by its
// first attempt and is returned to the caller to resend — and only
// idempotent methods retry a 503: a POST interrupted mid-proxy may have
// been applied, so replaying it is the caller's call, not the client's.
// The request context bounds the whole retry loop; cancelling it aborts a
// backoff sleep immediately.
func WithRetry(maxRetries int) ClientOption {
	return func(c *Client) {
		if maxRetries > 0 {
			c.retries = maxRetries
		}
	}
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8321"); a trailing slash is tolerated.
func New(baseURL string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// APIError is a non-2xx response decoded from the v1 error envelope.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // stable machine code (api error vocabulary)
	Message string
	// Details is the envelope's structured context; for resource_exhausted
	// it carries {quota, tenant, current, limit, retryAfterSeconds}.
	Details map[string]any
	// RetryAfter is the server's Retry-After hint (zero when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("adawave server: %s (code %s, http %d)", e.Message, e.Code, e.Status)
}

// Is maps wire codes back onto the adawave error taxonomy, so
// errors.Is(err, adawave.ErrInvalidInput) (etc.) works across the HTTP
// boundary.
func (e *APIError) Is(target error) bool {
	switch target {
	case adawave.ErrInvalidInput:
		return e.Code == api.CodeInvalidInput
	case adawave.ErrNoPoints:
		return e.Code == api.CodeNoPoints
	case adawave.ErrConfigMismatch:
		// embedding_mismatch refines config_mismatch on the wire exactly as
		// ErrEmbeddingMismatch wraps ErrConfigMismatch in Go, so the broad
		// sentinel matches both codes.
		return e.Code == api.CodeConfigMismatch || e.Code == api.CodeEmbeddingMismatch
	case adawave.ErrEmbeddingMismatch:
		return e.Code == api.CodeEmbeddingMismatch
	case adawave.ErrCanceled:
		return e.Code == api.CodeCanceled
	case adawave.ErrDeadlineExceeded:
		return e.Code == api.CodeDeadlineExceeded
	case adawave.ErrResourceExhausted:
		return e.Code == api.CodeResourceExhausted
	}
	return false
}

// auth stamps the tenant key, when configured.
func (c *Client) auth(req *http.Request) {
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
}

// do issues one JSON round trip: method + path, optional request body,
// optional response decode (encoding/json into out, or out itself when it
// is a bodyReader). Non-2xx responses decode into *APIError. The
// body is marshaled once and replayed on every attempt, so WithRetry can
// resend 429-rejected requests verbatim.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var raw []byte
	if in != nil {
		var err error
		if raw, err = json.Marshal(in); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(raw)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		c.auth(req)
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
			defer resp.Body.Close()
			if read, ok := out.(bodyReader); ok {
				return read(resp.Body)
			}
			if out != nil {
				return json.NewDecoder(resp.Body).Decode(out)
			}
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		err = decodeAPIError(resp)
		resp.Body.Close()
		if !c.shouldRetry(method, err, attempt) {
			return err
		}
		var ae *APIError
		errors.As(err, &ae)
		if err := sleepBackoff(ctx, ae.RetryAfter, attempt); err != nil {
			return err
		}
	}
}

// shouldRetry, under WithRetry's budget: 429 responses (quota backpressure,
// any method — the request was refused before it touched a session), and
// 503 responses carrying a Retry-After hint for idempotent methods (a
// cluster router mid-failover; the hint is its explicit come-back signal).
// A 503 POST never retries here — it may have been applied by a node that
// died before answering, and replaying it could double-apply. Every other
// status is either permanent (4xx) or the server's fault (5xx) — blind
// replay would just add load.
func (c *Client) shouldRetry(method string, err error, attempt int) bool {
	if c.retries <= 0 || attempt >= c.retries {
		return false
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		return false
	}
	switch ae.Status {
	case http.StatusTooManyRequests:
		return true
	case http.StatusServiceUnavailable:
		return ae.RetryAfter > 0 && idempotentMethod(method)
	}
	return false
}

// idempotentMethod reports whether a method is safe to replay blindly
// (RFC 9110 §9.2.2).
func idempotentMethod(method string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete, http.MethodOptions:
		return true
	}
	return false
}

// sleepBackoff waits before attempt+1: the server's Retry-After hint when
// given (else 1 s doubling per attempt), capped at retryCap, with ±25%
// jitter so synchronized clients do not re-collide on the same second.
func sleepBackoff(ctx context.Context, hint time.Duration, attempt int) error {
	wait := hint
	if wait <= 0 {
		wait = time.Second << uint(attempt)
	}
	if wait > retryCap {
		wait = retryCap
	}
	wait += time.Duration((rand.Float64() - 0.5) * 0.5 * float64(wait))
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func decodeAPIError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	apiErr := &APIError{Status: resp.StatusCode, Code: api.CodeInternal, Message: string(raw)}
	var env api.ErrorResponse
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
		apiErr.Details = env.Error.Details
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
			if apiErr.RetryAfter == 0 {
				// RetryAfter doubles as the "hint was present" signal (zero
				// means absent), so an explicit "retry immediately" floors
				// at a nominal wait instead of vanishing.
				apiErr.RetryAfter = time.Millisecond
			}
		}
	}
	return apiErr
}

// Healthz probes liveness.
func (c *Client) Healthz(ctx context.Context) (*api.HealthzResponse, error) {
	var out api.HealthzResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the per-route request/latency counters.
func (c *Client) Metrics(ctx context.Context) (*api.MetricsResponse, error) {
	var out api.MetricsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateSession creates a streaming session; cfg nil selects the paper's
// parameter-free defaults. It returns the session id.
func (c *Client) CreateSession(ctx context.Context, cfg *api.SessionConfig) (string, error) {
	if cfg == nil {
		cfg = &api.SessionConfig{}
	}
	var out api.CreateSessionResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", cfg, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// ListSessions lists every live session.
func (c *Client) ListSessions(ctx context.Context) ([]api.SessionInfo, error) {
	var out api.ListSessionsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &out); err != nil {
		return nil, err
	}
	return out.Sessions, nil
}

// Session fetches one session's detail (points, dim, live-grid cells,
// durability state).
func (c *Client) Session(ctx context.Context, id string) (*api.SessionDetail, error) {
	var out api.SessionDetail
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Append adds a batch of points to the session.
func (c *Client) Append(ctx context.Context, id string, points [][]float64) (*api.AppendResponse, error) {
	var out api.AppendResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/points", api.AppendRequest{Points: points}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AppendCSV streams a text/csv body into the session (the server ingests it
// in bounded chunks; a mid-stream failure rolls the whole upload back).
func (c *Client) AppendCSV(ctx context.Context, id string, csv io.Reader) (*api.AppendResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sessions/"+id+"/points", csv)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/csv")
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	var out api.AppendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Remove deletes the points at the given indices (current point order).
func (c *Client) Remove(ctx context.Context, id string, indices []int) (*api.RemoveResponse, error) {
	var out api.RemoveResponse
	if err := c.do(ctx, http.MethodDelete, "/v1/sessions/"+id+"/points", api.RemoveRequest{Indices: indices}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// bodyReader, passed to do as out, consumes a 2xx response body in place
// of encoding/json.
type bodyReader func(body io.Reader) error

// labelBufs pools the buffers Labels reads response bodies into.
var labelBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Labels clusters the current point set and returns the full result,
// labels included, as one JSON document. For very large sessions prefer
// LabelsStream. Cancelling ctx mid-call aborts the server-side pipeline.
//
// The body is read whole and decoded by api.DecodeResult, which scans the
// label array the server writes without encoding/json and gives the same
// result encoding/json would on any other input.
func (c *Client) Labels(ctx context.Context, id string) (*api.Result, error) {
	var out api.Result
	read := bodyReader(func(body io.Reader) error {
		buf := labelBufs.Get().(*bytes.Buffer)
		defer labelBufs.Put(buf)
		buf.Reset()
		if _, err := buf.ReadFrom(body); err != nil {
			return err
		}
		return api.DecodeResult(buf.Bytes(), &out)
	})
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/labels", nil, read); err != nil {
		return nil, err
	}
	return &out, nil
}

// LabelsStream clusters the current point set and consumes the NDJSON
// streamed representation: the result meta is returned, and fn is invoked
// once per streamed chunk with the offset of its first label — million-label
// sessions arrive in bounded memory on both sides. A non-nil error from fn
// aborts the stream (and, through ctx, the transfer). The chunks must
// arrive in order, each starting where the previous one ended, and cover
// exactly the meta's point count; any other stream is an error. Chunk lines
// are decoded by api.DecodeLabelsChunk.
func (c *Client) LabelsStream(ctx context.Context, id string, fn func(offset int, labels []int) error) (*api.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sessions/"+id+"/labels", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	var meta api.LabelsMeta
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return nil, fmt.Errorf("bad NDJSON meta line: %w", err)
	}
	seen := 0
	for sc.Scan() {
		var chunk api.LabelsChunk
		if err := api.DecodeLabelsChunk(sc.Bytes(), &chunk); err != nil {
			return nil, fmt.Errorf("bad NDJSON chunk line: %w", err)
		}
		if chunk.Offset != seen {
			return nil, fmt.Errorf("NDJSON chunk at offset %d, want %d", chunk.Offset, seen)
		}
		if fn != nil {
			if err := fn(chunk.Offset, chunk.Labels); err != nil {
				return nil, err
			}
		}
		seen += len(chunk.Labels)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if seen != meta.Meta.Points {
		return nil, fmt.Errorf("NDJSON stream truncated: %d of %d labels", seen, meta.Meta.Points)
	}
	res := meta.Meta.Result
	return &res, nil
}

// MultiResolution clusters the current point set at levels 1…maxLevels.
func (c *Client) MultiResolution(ctx context.Context, id string, maxLevels int) ([]api.Result, error) {
	var out api.MultiResolutionResponse
	path := fmt.Sprintf("/v1/sessions/%s/multiresolution?levels=%d", id, maxLevels)
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.Levels, nil
}

// Checkpoint forces a durable checkpoint now (requires the server to run
// with -data-dir).
func (c *Client) Checkpoint(ctx context.Context, id string) (*api.CheckpointResponse, error) {
	var out api.CheckpointResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/checkpoint", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteSession drops the session and its durable state.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Usage fetches a tenant's standing against its quotas: points, cells,
// resident sessions and bytes, in-flight folds, observed QPS, and the quota
// limits in force. Pass the tenant id (the one CreateSession returned, or
// "default" for keyless use).
func (c *Client) Usage(ctx context.Context, tenant string) (*api.TenantUsage, error) {
	var out api.TenantUsage
	if err := c.do(ctx, http.MethodGet, "/v1/tenants/"+tenant+"/usage", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
