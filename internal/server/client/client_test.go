package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// replying serves body as a 200 reply to every request.
func replying(t *testing.T, body string) *Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return New(srv.URL)
}

// TestMalformedRepliesAreErrors pins that a 200 reply missing the result
// an operation needs is an error, never a panic: no results at all, or
// one result without the outcome (applied) or cardinality (count) field.
// An empty result is a valid empty query (the server omits empty rows).
func TestMalformedRepliesAreErrors(t *testing.T) {
	ctx := context.Background()
	key := map[string]any{"k": 1}
	for _, tc := range []struct {
		body    string
		queryOK bool
	}{
		{body: `{"results":[]}`},
		{body: `{"results":[{}]}`, queryOK: true},
	} {
		t.Run(tc.body, func(t *testing.T) {
			cl := replying(t, tc.body)
			if _, err := cl.Insert(ctx, "r", key, map[string]any{"v": 2}); err == nil {
				t.Error("Insert: want an error")
			}
			if _, err := cl.Remove(ctx, "r", key); err == nil {
				t.Error("Remove: want an error")
			}
			if _, err := cl.Count(ctx, "r", key); err == nil {
				t.Error("Count: want an error")
			}
			rows, err := cl.Query(ctx, "r", key, "v")
			if tc.queryOK {
				if err != nil || len(rows) != 0 {
					t.Errorf("Query = %v, %v; want no rows and no error", rows, err)
				}
			} else if err == nil {
				t.Error("Query: want an error")
			}
		})
	}
}

// TestWellFormedReply decodes one reply carrying every result field.
func TestWellFormedReply(t *testing.T) {
	ctx := context.Background()
	key := map[string]any{"k": 1}
	cl := replying(t, `{"results":[{"applied":true,"count":3,"rows":[{"v":7}]}]}`)
	if ok, err := cl.Insert(ctx, "r", key, map[string]any{"v": 7}); err != nil || !ok {
		t.Errorf("Insert = %v, %v; want true", ok, err)
	}
	if ok, err := cl.Remove(ctx, "r", key); err != nil || !ok {
		t.Errorf("Remove = %v, %v; want true", ok, err)
	}
	if n, err := cl.Count(ctx, "r", key); err != nil || n != 3 {
		t.Errorf("Count = %v, %v; want 3", n, err)
	}
	rows, err := cl.Query(ctx, "r", key, "v")
	if err != nil || len(rows) != 1 || rows[0]["v"] != json.Number("7") {
		t.Errorf("Query = %v, %v; want one row v=7", rows, err)
	}
}
