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
//
// Do encodes a request with server.AppendRequest into pooled scratch
// space, byte for byte what json.Marshal writes, and decodes the reply
// with server.DecodeResponse, which scans the grammar the server emits
// without reflection. Row values that are numbers arrive as json.Number,
// as json.Decoder with UseNumber delivers them.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
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

	// txn caches the parsed transaction URL for the BaseURL it was
	// parsed from.
	txn atomic.Pointer[txnURL]
}

// txnURL is a parsed POST /v1/txn target.
type txnURL struct {
	base string
	u    *url.URL
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
	scratch := getBuf()
	enc, err := server.AppendRequest((*scratch)[:0], req)
	*scratch = enc
	// The body gets a buffer of its own: the transport may read it after
	// Do returns, and a *bytes.Reader lets it send headers and body in
	// one write.
	body := append([]byte(nil), enc...)
	putBuf(scratch)
	if err != nil {
		return nil, err
	}
	u, err := c.txnTarget()
	if err != nil {
		return nil, err
	}
	header := jsonHeader
	if c.client().Jar != nil {
		// A cookie jar adds to the request's header: give it its own.
		header = http.Header{"Content-Type": jsonHeader["Content-Type"]}
	}
	hreq := (&http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        header,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Host:          u.Host,
	}).WithContext(ctx)
	buf := getBuf()
	defer putBuf(buf)
	data, err := c.roundTrip(hreq, (*buf)[:0])
	*buf = data
	if err != nil {
		return nil, err
	}
	resp, err := server.DecodeResponse(data)
	if err != nil {
		return nil, fmt.Errorf("client: bad response: %w", err)
	}
	return resp, nil
}

// jsonHeader is the header of every transaction POST, shared read-only
// (a request's header is only written by a cookie jar).
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// txnTarget returns the parsed transaction URL, parsing it again only
// when BaseURL changed.
func (c *Client) txnTarget() (*url.URL, error) {
	if t := c.txn.Load(); t != nil && t.base == c.BaseURL {
		return t.u, nil
	}
	u, err := url.Parse(c.BaseURL + "/v1/txn")
	if err != nil {
		return nil, err
	}
	c.txn.Store(&txnURL{base: c.BaseURL, u: u})
	return u, nil
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

// Query submits query rel s out and returns the projected rows, one
// column→value map each. Numbers arrive as json.Number, so integer keys
// keep their exact digits (convert with Int64 or Float64); strings and
// booleans arrive as string and bool. An empty result arrives without a
// rows field and is returned as nil rows.
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

// get issues a context-bound GET and returns the 200 body.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	return c.roundTrip(req, nil)
}

// roundTrip executes the request, appends the reply body to buf, and
// maps non-200 replies to errors. The body is returned with the error
// too, so a caller can hand a pooled buf back either way.
func (c *Client) roundTrip(req *http.Request, buf []byte) ([]byte, error) {
	httpResp, err := c.client().Do(req)
	if err != nil {
		return buf, err
	}
	defer httpResp.Body.Close()
	data, err := readAll(httpResp.Body, buf)
	if err != nil {
		return data, err
	}
	if httpResp.StatusCode != http.StatusOK {
		return data, decodeError(httpResp.StatusCode, data)
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
