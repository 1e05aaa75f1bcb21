// Package client is the Go client of the crsd wire protocol: a thin
// typed wrapper over the HTTP+JSON endpoints of internal/server, used by
// the e2e tests and the repo benchmark's wire workloads. One Client is
// safe for concurrent use by many goroutines (it shares one http.Client
// and its connection pool).
//
// Construction follows the options vocabulary (client.New(base,
// client.WithTimeout(...))) and every method takes a context.Context
// first, so open-loop callers can enforce per-request deadlines without
// giving up the shared connection pool.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/server"
)

// DefaultTimeout is the per-request timeout New installs when no option
// overrides it — generous, because group commits deliberately delay
// replies by the window.
const DefaultTimeout = 30 * time.Second

// Client talks to one crsd server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7070".
	BaseURL string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
}

// Option configures a Client at construction time.
type Option func(*Client)

// WithTimeout sets the per-request timeout of the client's default
// http.Client. It is ignored if WithHTTPClient later replaces the
// transport wholesale; per-request deadlines via context take precedence
// either way.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) {
		if c.HTTP != nil {
			c.HTTP.Timeout = d
		}
	}
}

// WithHTTPClient replaces the underlying http.Client wholesale — for
// custom transports, connection-pool tuning, or test doubles.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.HTTP = h }
}

// New returns a client for the server at baseURL, configured by opts in
// order. With no options it behaves like the original constructor: a
// fresh http.Client with DefaultTimeout.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: DefaultTimeout},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Do submits a multi-op transaction and returns its committed response.
// A non-2xx status becomes an error carrying the server's message; ctx
// cancellation or deadline expiry aborts the request.
func (c *Client) Do(ctx context.Context, req *server.Request) (*server.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	data, err := c.post(ctx, "/v1/txn", body)
	if err != nil {
		return nil, err
	}
	var resp server.Response
	if err := unmarshalNumbers(data, &resp); err != nil {
		return nil, fmt.Errorf("client: bad response: %w", err)
	}
	return &resp, nil
}

// Insert submits insert rel s t as a one-op transaction and reports the
// put-if-absent outcome.
func (c *Client) Insert(ctx context.Context, rel string, s, t map[string]any) (bool, error) {
	return c.applied(ctx, server.Op{Kind: server.OpInsert, Rel: rel, S: s, T: t})
}

// Remove submits remove rel s and reports whether anything existed.
func (c *Client) Remove(ctx context.Context, rel string, s map[string]any) (bool, error) {
	return c.applied(ctx, server.Op{Kind: server.OpRemove, Rel: rel, S: s})
}

// Count submits |query rel s| and returns the cardinality.
func (c *Client) Count(ctx context.Context, rel string, s map[string]any) (int, error) {
	res, err := c.doOne(ctx, server.Op{Kind: server.OpCount, Rel: rel, S: s})
	if err != nil {
		return 0, err
	}
	if res.Count == nil {
		return 0, fmt.Errorf("client: bad response: count result carries no count")
	}
	return *res.Count, nil
}

// Query submits query rel s out and returns the projected rows. An empty
// result arrives without a rows field and is returned as nil rows.
func (c *Client) Query(ctx context.Context, rel string, s map[string]any, out ...string) ([]map[string]any, error) {
	res, err := c.doOne(ctx, server.Op{Kind: server.OpQuery, Rel: rel, S: s, Out: out})
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// applied submits one insert or remove and returns its outcome.
func (c *Client) applied(ctx context.Context, op server.Op) (bool, error) {
	res, err := c.doOne(ctx, op)
	if err != nil {
		return false, err
	}
	if res.Applied == nil {
		return false, fmt.Errorf("client: bad response: %s result carries no outcome", op.Kind)
	}
	return *res.Applied, nil
}

// doOne submits op as a one-op transaction and returns its result,
// rejecting a reply that does not carry exactly one.
func (c *Client) doOne(ctx context.Context, op server.Op) (*server.OpResult, error) {
	resp, err := c.Do(ctx, &server.Request{Ops: []server.Op{op}})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("client: bad response: %d results for a one-op request", len(resp.Results))
	}
	return &resp.Results[0], nil
}

// Stats fetches the dispatcher's coalescing and latency counters.
func (c *Client) Stats(ctx context.Context) (*server.Stats, error) {
	data, err := c.get(ctx, "/v1/stats")
	if err != nil {
		return nil, err
	}
	var s server.Stats
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Healthy reports whether the server answers its liveness probe.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drain for pool reuse
	return resp.StatusCode == http.StatusOK
}

// post issues a context-bound POST and returns the 200 body.
func (c *Client) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.roundTrip(req)
}

// get issues a context-bound GET and returns the 200 body.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	return c.roundTrip(req)
}

// roundTrip executes the request and maps non-200 replies to errors.
func (c *Client) roundTrip(req *http.Request) ([]byte, error) {
	httpResp, err := c.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, err
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, decodeError(httpResp.StatusCode, data)
	}
	return data, nil
}

// client applies the HTTP default.
func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// unmarshalNumbers unmarshals with UseNumber so row values keep integer
// identity (int64, not float64) across the wire — the same discipline the
// server applies to request bodies.
func unmarshalNumbers(data []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(into)
}

// decodeError turns an error reply into a Go error.
func decodeError(status int, data []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("client: server returned %d: %s", status, e.Error)
	}
	return fmt.Errorf("client: server returned %d", status)
}
