package server

// The HTTP+JSON front end: a thin codec layer over the Dispatcher. Every
// data-path handler scans its body straight into a pooled compiled
// request (scan.go) and parks it in the dispatcher's window, so whether
// a request arrived via POST /v1/txn or one of the single-op
// conveniences, it coalesces with whatever else the window holds; the
// reply is append-encoded into the same request's buffer (reply.go).
// cmd/crsd is a flag wrapper around New + ListenAndServe; tests start
// the same Server in-process on a random port.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
)

// Server serves a registry over HTTP: the transaction endpoint, single-op
// conveniences, and introspection.
//
//	POST /v1/txn       {"ops":[{"op":"insert","rel":"posts","s":{...},"t":{...}}, ...]}
//	POST /v1/insert    {"rel":"posts","s":{...},"t":{...}}
//	POST /v1/remove    {"rel":"posts","s":{...}}
//	POST /v1/count     {"rel":"posts","s":{...}}
//	POST /v1/query     {"rel":"posts","s":{...},"out":["post","ts"]}
//	GET  /v1/stats     dispatcher counters (coalescing statistics)
//	GET  /v1/relations registered relations and their columns
//	GET  /healthz      liveness
//
// Data-path replies are Response documents; errors are
// {"error":"..."} with status 400 (invalid request), 413 (body over
// MaxBodyBytes), 500 (the commit or its WAL sync failed), 503 (shutting
// down) or 405 (wrong method).
type Server struct {
	disp *Dispatcher
	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener
}

// New builds a Server over reg with the given dispatcher configuration.
// Start or ListenAndServe make it accept connections.
func New(reg *core.Registry, cfg Config) *Server {
	s := &Server{disp: NewDispatcher(reg, cfg)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/txn", s.handleOps(0))
	s.mux.HandleFunc("POST /v1/insert", s.handleOps(kindInsert))
	s.mux.HandleFunc("POST /v1/remove", s.handleOps(kindRemove))
	s.mux.HandleFunc("POST /v1/count", s.handleOps(kindCount))
	s.mux.HandleFunc("POST /v1/query", s.handleOps(kindQuery))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/relations", func(w http.ResponseWriter, r *http.Request) {
		type relInfo struct {
			Name    string   `json:"name"`
			Columns []string `json:"columns"`
		}
		var out []relInfo
		for _, rel := range reg.Relations() {
			out = append(out, relInfo{Name: rel.Name(), Columns: rel.Spec().Columns})
		}
		writeJSON(w, http.StatusOK, out)
	})
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.http = &http.Server{Handler: s.mux}
	return s
}

// Dispatcher exposes the server's dispatcher (tests and benchmarks read
// its Stats and drive Flush during shutdown scenarios).
func (s *Server) Dispatcher() *Dispatcher { return s.disp }

// Registry exposes the served registry — quiescent inspection only
// (tests checksum the final relation contents after a run).
func (s *Server) Registry() *core.Registry { return s.disp.reg }

// Start listens on addr ("host:port"; port 0 picks a free one) and
// serves in a background goroutine. Addr reports the bound address.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() {
		// ErrServerClosed is the normal Shutdown result; anything else
		// would surface via failing requests, which the callers observe.
		_ = s.http.Serve(ln)
	}()
	return nil
}

// ListenAndServe listens on addr and serves until Shutdown — the
// foreground variant cmd/crsd runs.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	err = s.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Addr returns the bound listen address (valid after Start /
// ListenAndServe).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: it stops accepting connections, then keeps
// flushing the dispatcher window while in-flight handlers finish — a
// request parked in a half-full window is committed and answered rather
// than waiting out the timer or being dropped — and finally closes the
// dispatcher. After Shutdown every accepted request has received its
// reply.
func (s *Server) Shutdown(ctx context.Context) error {
	done := make(chan error, 1)
	go func() { done <- s.http.Shutdown(ctx) }()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			s.disp.Close()
			return err
		case <-tick.C:
			s.disp.Flush()
		}
	}
}

// handleOps serves the data path: POST /v1/txn (single 0, the body a
// Request document) or a single-op convenience (the body one Op without
// its "op" member, the route providing the kind, submitted as a
// one-member transaction).
func (s *Server) handleOps(single opKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d := s.disp
		tr := d.getReq()
		defer d.putReq(tr)
		var err error
		if tr.body, err = readBody(r, tr.body[:0]); err != nil {
			status := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, fmt.Errorf("server: bad request body: %w", err))
			return
		}
		if err := tr.scan(&d.cat, tr.body, single); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := d.submit(tr); err != nil {
			switch {
			case errors.Is(err, ErrClosed):
				writeError(w, http.StatusServiceUnavailable, err)
			case IsBadRequest(err):
				writeError(w, http.StatusBadRequest, err)
			default:
				writeError(w, http.StatusInternalServerError, err)
			}
			return
		}
		tr.out, err = tr.appendReply(tr.out[:0])
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusOK)
		if err == nil {
			_, _ = w.Write(tr.out)
		}
	}
}

// jsonContentType is the Content-Type header value of every JSON reply,
// shared read-only.
var jsonContentType = []string{"application/json"}

// handleStats reports the dispatcher's coalescing counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.disp.Stats())
}

// MaxBodyBytes caps a data-path request body; a longer one is refused
// with 413 before any of it is scanned.
const MaxBodyBytes = 4 << 20

// readBody reads a request body into buf, refusing one longer than
// MaxBodyBytes with an *http.MaxBytesError.
func readBody(r *http.Request, buf []byte) ([]byte, error) {
	if n := r.ContentLength; n > 0 && n <= MaxBodyBytes && int(n) >= cap(buf) {
		buf = make([]byte, 0, n+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > MaxBodyBytes {
			return buf, &http.MaxBytesError{Limit: MaxBodyBytes}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes an {"error": ...} document.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
