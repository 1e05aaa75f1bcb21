package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/workload"
)

// wireAllocCeiling is the most heap allocations one warm request may
// cost on its way through the handler: body scan, compile, enqueue,
// group commit and reply encoding, plus the engine's work and the three
// the harness makes per run (the request copy, its body reader and
// body). What remains of the server's own share is the boxed values an
// insert stores.
var wireAllocCeiling = map[string]float64{
	"insert": 11,
	"count":  3,
	"query":  3,
}

// TestWireRequestAllocs gates the per-request garbage of the wire path:
// an insert, a count and a query request, each POSTed to /v1/txn through
// the handler (httptest recorder, MaxBatch 1 so every request commits
// alone), warm.
func TestWireRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	soc, err := workload.NewSocial()
	if err != nil {
		t.Fatal(err)
	}
	s := New(soc.Reg, Config{MaxBatch: 1})
	t.Cleanup(s.disp.Close)
	for p := 0; p < 3; p++ {
		body := fmt.Sprintf(`{"ops":[{"op":"insert","rel":"posts","s":{"author":7001,"post":%d},"t":{"ts":%d}}]}`, 9000+p, 123456+p)
		if rec := post(s, "/v1/txn", body); rec.Code != http.StatusOK {
			t.Fatalf("seed post: %d %s", rec.Code, rec.Body)
		}
	}
	// Each insert run adds a fresh post, so the measured path is a real
	// put-if-absent success, not a no-op.
	const runs = 200
	inserts := make([]*strings.Reader, 0, runs+1)
	for i := 0; i <= runs; i++ {
		inserts = append(inserts, strings.NewReader(fmt.Sprintf(
			`{"ops":[{"op":"insert","rel":"posts","s":{"author":%d,"post":%d},"t":{"ts":%d}}]}`, 5000+i, 70000+i, 1000000+i)))
	}
	bodies := map[string]func(i int) *strings.Reader{
		"insert": func(i int) *strings.Reader { return inserts[i%len(inserts)] },
		"count": func(int) *strings.Reader {
			return strings.NewReader(`{"ops":[{"op":"count","rel":"posts","s":{"author":7001}}]}`)
		},
		"query": func(int) *strings.Reader {
			return strings.NewReader(`{"ops":[{"op":"query","rel":"posts","s":{"author":7001},"out":["post","ts"]}]}`)
		},
	}
	for _, name := range []string{"insert", "count", "query"} {
		t.Run(name, func(t *testing.T) {
			next := bodies[name]
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/txn", nil)
			i := 0
			serve := func() {
				rec.Body.Reset()
				r := *req
				r.Body = readCloser{next(i)}
				i++
				s.mux.ServeHTTP(rec, &r)
			}
			// Warm the pools and the prepared-statement cache.
			for w := 0; w < 5; w++ {
				serve()
			}
			i = 0
			got := testing.AllocsPerRun(runs, serve)
			if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), `{"results":[{`) {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			t.Logf("%s: %.0f allocs/request", name, got)
			if ceil := wireAllocCeiling[name]; got > ceil {
				t.Errorf("%s request: %.0f allocs, ceiling %.0f", name, got, ceil)
			}
		})
	}
}

// readCloser adapts a reader into a request body.
type readCloser struct{ *strings.Reader }

func (readCloser) Close() error { return nil }
