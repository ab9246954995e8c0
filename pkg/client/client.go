// Package client is the typed Go client for the gpsd v1 API. It covers
// the whole surface — graph loading, ad-hoc evaluation, session lifecycle,
// the SSE event stream, stats and the Prometheus metrics scrape — decodes
// the v1 error envelope into typed *APIError values (so callers branch on
// stable error codes, never on message text), and authenticates with an
// API key on multi-tenant deployments.
//
//	c := client.New("http://127.0.0.1:8080", client.WithAPIKey("s3cret"))
//	v, err := c.CreateSession(ctx, service.SessionConfig{Graph: "demo"})
//	if client.IsCode(err, service.CodeQuotaExceeded) { ... back off ... }
//
// The request/response types are the service package's own wire types, so
// client and server cannot drift apart silently.
//
// # Failover
//
// A client built with WithEndpoints knows every member of a replicated
// pair (or more) and drives failover itself: connection errors and 5xx
// answers are retried with exponential backoff and jitter, and between
// attempts the client re-resolves the primary by asking every endpoint
// for GET /v1/replication/status — preferring an unfenced primary with
// the highest fencing epoch. The client pins the highest epoch it has
// ever observed and sends it as X-GPSD-Epoch on every request, which is
// what fences a resurrected old primary (it answers 503 fenced from
// then on, and the retry loop moves past it). 429 answers honor the
// server's Retry-After before retrying the same endpoint — an
// overloaded primary is still the primary.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// Backoff bounds for the retry loop: exponential from retryMin, capped
// at retryMax, with ±50% jitter so a herd of failed-over clients does
// not reconnect in lockstep.
const (
	retryMin = 50 * time.Millisecond
	retryMax = 2 * time.Second
	// retryAfterCap bounds how long a Retry-After hint is honored.
	retryAfterCap = 30 * time.Second
	// resolveTimeout bounds each status probe during primary re-resolution.
	resolveTimeout = 2 * time.Second
)

// Client talks to a gpsd deployment — one base URL, or a failover set
// via WithEndpoints. Safe for concurrent use.
type Client struct {
	hc  *http.Client
	key string

	// mu guards the endpoint set and the index of the believed primary.
	mu        sync.Mutex
	endpoints []string
	cur       int

	// epoch is the highest fencing epoch observed on any replication
	// status; sent as X-GPSD-Epoch so an old primary fences itself.
	epoch atomic.Uint64

	// retries is the number of retry attempts after the first failure;
	// retriesSet tracks whether WithRetries pinned it explicitly.
	retries    int
	retriesSet bool
}

// Option configures a Client.
type Option func(*Client)

// WithAPIKey sends the key as an Authorization: Bearer header on every
// request — required against a gpsd running with -api-keys.
func WithAPIKey(key string) Option { return func(c *Client) { c.key = key } }

// WithTimeout bounds every non-streaming request. The default is 10s;
// Events streams are exempt (they use a dedicated transport-level client).
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.hc.Timeout = d } }

// WithHTTPClient substitutes the underlying *http.Client wholesale.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithEndpoints replaces the endpoint set with a failover group; the
// first entry is tried first. Retries default on (see WithRetries) as
// soon as the client knows more than one endpoint.
func WithEndpoints(urls ...string) Option {
	return func(c *Client) {
		if len(urls) > 0 {
			c.endpoints = append([]string(nil), urls...)
			c.cur = 0
		}
	}
}

// WithRetries sets how many times a failed request is retried (0
// disables the retry loop). The default is 0 for a single-endpoint
// client — failures surface immediately, as they always have — and 8
// for a failover group, enough to ride out a promotion.
func WithRetries(n int) Option {
	return func(c *Client) {
		c.retries = n
		c.retriesSet = true
	}
}

// New returns a client for the gpsd at baseURL (e.g. "http://host:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{endpoints: []string{baseURL}, hc: &http.Client{Timeout: 10 * time.Second}}
	for _, o := range opts {
		o(c)
	}
	if !c.retriesSet && len(c.endpoints) > 1 {
		c.retries = 8
	}
	return c
}

// endpoint returns the base URL of the believed primary.
func (c *Client) endpoint() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endpoints[c.cur]
}

// endpointList snapshots the endpoint set.
func (c *Client) endpointList() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.endpoints...)
}

// rotate moves to the next endpoint in the set.
func (c *Client) rotate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur = (c.cur + 1) % len(c.endpoints)
}

// setPrimary points the client at base if it is in the endpoint set.
func (c *Client) setPrimary(base string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.endpoints {
		if e == base {
			c.cur = i
			return
		}
	}
}

// noteEpoch raises the pinned fencing epoch (it never goes down).
func (c *Client) noteEpoch(e uint64) {
	for {
		cur := c.epoch.Load()
		if e <= cur || c.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// decorate attaches the API key and the pinned fencing epoch.
func (c *Client) decorate(req *http.Request) {
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	if e := c.epoch.Load(); e > 0 {
		req.Header.Set(service.EpochHeader, strconv.FormatUint(e, 10))
	}
}

// APIError is a non-2xx response decoded from the v1 error envelope.
// Code is the stable machine-readable half of the API contract; Message
// is human-oriented and free to change between versions.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code identifies the failure; see the service.Code* constants.
	Code service.ErrorCode
	// Message is the human-readable detail.
	Message string
	// RequestID correlates the failure with the server's log line.
	RequestID string
	// RetryAfter is the server's Retry-After hint in seconds (0 if none).
	RetryAfter int
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("gpsd: %d %s: %s (request %s)", e.Status, e.Code, e.Message, e.RequestID)
	}
	return fmt.Sprintf("gpsd: %d %s: %s", e.Status, e.Code, e.Message)
}

// CodeOf extracts the API error code, or "" when err is nil or not an
// *APIError (transport failures, decode failures).
func CodeOf(err error) service.ErrorCode {
	var ae *APIError
	if ok := asAPIError(err, &ae); ok {
		return ae.Code
	}
	return ""
}

// IsCode reports whether err is an *APIError carrying the given code.
func IsCode(err error, code service.ErrorCode) bool { return CodeOf(err) == code }

func asAPIError(err error, out **APIError) bool {
	for err != nil {
		if ae, ok := err.(*APIError); ok {
			*out = ae
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// do runs one JSON request with the retry loop. A non-2xx answer becomes
// an *APIError (with Code "" when the body carried no envelope — a proxy
// error, say); a nil error means out (if non-nil) was decoded from the
// response body. Connection errors and 5xx answers are retried up to the
// configured attempts, re-resolving the primary between tries; 429
// honors Retry-After against the same endpoint; other 4xx answers are
// the caller's problem and return immediately.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt, lastErr); err != nil {
				return lastErr
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.endpoint()+path, rd)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		c.decorate(req)
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			if ctx.Err() != nil {
				return lastErr
			}
			c.reResolve(ctx)
			continue
		}
		if resp.StatusCode >= 400 {
			ae := decodeAPIError(resp)
			resp.Body.Close()
			if !retryable(ae) {
				return ae
			}
			lastErr = ae
			if ae.Status >= 500 {
				// The endpoint is down, demoted or fenced; find the primary.
				c.reResolve(ctx)
			}
			continue
		}
		var decodeErr error
		if out != nil {
			decodeErr = json.NewDecoder(resp.Body).Decode(out)
		}
		resp.Body.Close()
		if decodeErr != nil {
			return fmt.Errorf("client: decode %s %s response: %w", method, path, decodeErr)
		}
		return nil
	}
	return lastErr
}

// retryable reports whether the retry loop should try again after this
// API error: any 5xx (covers not_primary, fenced, store failures and
// deadline expiry) and a rate limit carrying a Retry-After hint.
func retryable(ae *APIError) bool {
	if ae.Status >= 500 {
		return true
	}
	return ae.Status == http.StatusTooManyRequests && ae.RetryAfter > 0
}

// backoff sleeps before retry attempt n: the server's Retry-After when
// the last failure was a rate limit, exponential-with-jitter otherwise.
// Returns ctx.Err() if the context ends first.
func (c *Client) backoff(ctx context.Context, attempt int, lastErr error) error {
	d := retryMin << (attempt - 1)
	if d > retryMax || d <= 0 {
		d = retryMax
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	var ae *APIError
	if asAPIError(lastErr, &ae) && ae.Status == http.StatusTooManyRequests && ae.RetryAfter > 0 {
		d = time.Duration(ae.RetryAfter) * time.Second
		if d > retryAfterCap {
			d = retryAfterCap
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// reResolve asks every endpoint for its replication status and points
// the client at the best primary: unfenced, role "primary", highest
// fencing epoch. When nothing answers (mid-failover), it rotates so the
// next attempt at least tries someone else.
func (c *Client) reResolve(ctx context.Context) {
	endpoints := c.endpointList()
	if len(endpoints) < 2 {
		return
	}
	var (
		best      string
		bestEpoch uint64
		found     bool
	)
	for _, base := range endpoints {
		st, err := c.statusAt(ctx, base)
		if err != nil {
			continue
		}
		c.noteEpoch(st.Epoch)
		if st.Role == "primary" && !st.Fenced && (!found || st.Epoch > bestEpoch) {
			best, bestEpoch, found = base, st.Epoch, true
		}
	}
	if found {
		c.setPrimary(best)
	} else {
		c.rotate()
	}
}

// statusAt fetches one endpoint's replication status without the retry
// loop (it runs inside the retry loop).
func (c *Client) statusAt(ctx context.Context, base string) (service.ReplicationStatus, error) {
	var st service.ReplicationStatus
	rctx, cancel := context.WithTimeout(ctx, resolveTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, base+"/v1/replication/status", nil)
	if err != nil {
		return st, err
	}
	c.decorate(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return st, decodeAPIError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}

func decodeAPIError(resp *http.Response) *APIError {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	ae := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		ae.RetryAfter, _ = strconv.Atoi(ra)
	}
	if body, ok := service.DecodeErrorBody(data); ok {
		ae.Code, ae.Message, ae.RequestID = body.Code, body.Message, body.RequestID
	} else {
		ae.Message = string(bytes.TrimSpace(data))
	}
	return ae
}

// Health probes GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// LoadGraph registers (or replaces) a graph via PUT /v1/graphs/{name}.
func (c *Client) LoadGraph(ctx context.Context, name string, spec service.LoadSpec) (service.GraphInfo, error) {
	var gi service.GraphInfo
	err := c.do(ctx, http.MethodPut, "/v1/graphs/"+url.PathEscape(name), spec, &gi)
	return gi, err
}

// Graph fetches one graph's stats.
func (c *Client) Graph(ctx context.Context, name string) (service.GraphInfo, error) {
	var gi service.GraphInfo
	err := c.do(ctx, http.MethodGet, "/v1/graphs/"+url.PathEscape(name), nil, &gi)
	return gi, err
}

// DeleteGraph unregisters a graph.
func (c *Client) DeleteGraph(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/graphs/"+url.PathEscape(name), nil, nil)
}

// GraphPage is one page of GET /v1/graphs.
type GraphPage = service.GraphPage

// GraphsPage lists graphs with pagination (stable order: name). limit 0
// with cursor "" is the unpaged listing.
func (c *Client) GraphsPage(ctx context.Context, limit int, cursor string) (GraphPage, error) {
	var p GraphPage
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	path := "/v1/graphs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	err := c.do(ctx, http.MethodGet, path, nil, &p)
	return p, err
}

// Graphs lists every registered graph.
func (c *Client) Graphs(ctx context.Context) ([]service.GraphInfo, error) {
	p, err := c.GraphsPage(ctx, 0, "")
	return p.Graphs, err
}

// EvaluateRequest is the body of POST /v1/graphs/{name}/evaluate.
type EvaluateRequest = service.EvaluateRequest

// EvaluateResult is the evaluation response.
type EvaluateResult = service.EvaluateResult

// Evaluate runs a query on a registered graph.
func (c *Client) Evaluate(ctx context.Context, graphName string, req EvaluateRequest) (EvaluateResult, error) {
	var res EvaluateResult
	err := c.do(ctx, http.MethodPost, "/v1/graphs/"+url.PathEscape(graphName)+"/evaluate", req, &res)
	return res, err
}

// CreateSession starts a learning session.
func (c *Client) CreateSession(ctx context.Context, cfg service.SessionConfig) (service.SessionView, error) {
	var v service.SessionView
	err := c.do(ctx, http.MethodPost, "/v1/sessions", cfg, &v)
	return v, err
}

// Session fetches one session's state and pending question.
func (c *Client) Session(ctx context.Context, id string) (service.SessionView, error) {
	var v service.SessionView
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &v)
	return v, err
}

// SessionPage is one page of GET /v1/sessions.
type SessionPage = service.SessionPage

// SessionFilter narrows GET /v1/sessions. Zero values select everything.
type SessionFilter struct {
	// State keeps only sessions in that status (e.g. "running", "done").
	State string
	// Graph keeps only sessions on that graph.
	Graph string
}

// SessionsPage lists sessions with filters and pagination (stable order:
// session id). limit 0 with cursor "" is the unpaged listing.
func (c *Client) SessionsPage(ctx context.Context, f SessionFilter, limit int, cursor string) (SessionPage, error) {
	var p SessionPage
	q := url.Values{}
	if f.State != "" {
		q.Set("state", f.State)
	}
	if f.Graph != "" {
		q.Set("graph", f.Graph)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	path := "/v1/sessions"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	err := c.do(ctx, http.MethodGet, path, nil, &p)
	return p, err
}

// Sessions lists the sessions matching the filter.
func (c *Client) Sessions(ctx context.Context, f SessionFilter) ([]service.SessionView, error) {
	p, err := c.SessionsPage(ctx, f, 0, "")
	return p.Sessions, err
}

// Answer delivers the reply to a session's pending question and returns
// the refreshed view.
func (c *Client) Answer(ctx context.Context, id string, a service.Answer) (service.SessionView, error) {
	var v service.SessionView
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/label", a, &v)
	return v, err
}

// DeleteSession cancels and drops a session.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// HypothesisResult is the current hypothesis and its answer set. Learned
// is "" while the session has no hypothesis yet.
type HypothesisResult = service.HypothesisResult

// Hypothesis fetches a session's current hypothesis; witnessNode, when
// non-empty, also requests a shortest witness path for that node.
func (c *Client) Hypothesis(ctx context.Context, id, witnessNode string) (HypothesisResult, error) {
	path := "/v1/sessions/" + url.PathEscape(id) + "/hypothesis"
	if witnessNode != "" {
		path += "?witness=" + url.QueryEscape(witnessNode)
	}
	var res HypothesisResult
	err := c.do(ctx, http.MethodGet, path, nil, &res)
	return res, err
}

// ReplicationStatus fetches the current endpoint's replication role,
// fencing epoch and feed (or lag) state, pinning any newer epoch it
// reveals.
func (c *Client) ReplicationStatus(ctx context.Context) (service.ReplicationStatus, error) {
	var st service.ReplicationStatus
	err := c.do(ctx, http.MethodGet, "/v1/replication/status", nil, &st)
	if err == nil {
		c.noteEpoch(st.Epoch)
	}
	return st, err
}

// Promote asks the current endpoint to assume the primary role: a
// follower stops replicating, fences its old primary by bumping the
// epoch, and adopts every replicated session; a server that already is
// the primary confirms idempotently. Point a single-endpoint client at
// the follower to direct the promotion.
func (c *Client) Promote(ctx context.Context) (service.ReplicationStatus, error) {
	var st service.ReplicationStatus
	err := c.do(ctx, http.MethodPost, "/v1/admin/promote", nil, &st)
	if err == nil {
		c.noteEpoch(st.Epoch)
	}
	return st, err
}

// Compact triggers one store compaction pass (durable deployments only).
func (c *Client) Compact(ctx context.Context) (store.CompactionReport, error) {
	var rep store.CompactionReport
	err := c.do(ctx, http.MethodPost, "/v1/admin/compact", nil, &rep)
	return rep, err
}

// Stats fetches the raw /v1/stats document.
func (c *Client) Stats(ctx context.Context) (map[string]json.RawMessage, error) {
	var out map[string]json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// TenantStats decodes the per-tenant admission accounting out of
// /v1/stats, keyed by tenant name.
func (c *Client) TenantStats(ctx context.Context) (map[string]service.TenantBackpressure, error) {
	stats, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]service.TenantBackpressure{}
	if raw, ok := stats["tenants"]; ok {
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("client: decode tenants stats: %w", err)
		}
	}
	return out, nil
}

// Metrics scrapes GET /metrics and returns the raw Prometheus text
// exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint()+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	c.decorate(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return "", decodeAPIError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: read /metrics: %w", err)
	}
	return string(data), nil
}
