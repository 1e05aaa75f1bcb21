package server

// The HTTP+JSON front end: a thin codec layer over the Dispatcher. Every
// data-path handler funnels into Dispatcher.Submit, so whether a request
// arrived via POST /v1/txn or one of the single-op conveniences, it
// coalesces with whatever else the window holds. cmd/crsd is a flag
// wrapper around New + ListenAndServe; tests start the same Server
// in-process on a random port.

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
	s.mux.HandleFunc("POST /v1/txn", s.handleTxn)
	s.mux.HandleFunc("POST /v1/insert", s.handleSingle(OpInsert))
	s.mux.HandleFunc("POST /v1/remove", s.handleSingle(OpRemove))
	s.mux.HandleFunc("POST /v1/count", s.handleSingle(OpCount))
	s.mux.HandleFunc("POST /v1/query", s.handleSingle(OpQuery))
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

// handleTxn decodes a Request document, submits it, and writes the
// Response.
func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	var req Request
	if decodeBody(w, r, &req) {
		s.submit(w, &req)
	}
}

// handleSingle adapts the single-op conveniences: the body is one Op
// without its "op" field (the route provides the kind), submitted as a
// one-member transaction.
func (s *Server) handleSingle(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var op Op
		if !decodeBody(w, r, &op) {
			return
		}
		op.Kind = kind
		s.submit(w, &Request{Ops: []Op{op}})
	}
}

// submit runs the shared submit-and-reply tail of the data-path handlers.
func (s *Server) submit(w http.ResponseWriter, req *Request) {
	resp, err := s.disp.Submit(req)
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case IsBadRequest(err):
		writeError(w, http.StatusBadRequest, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleStats reports the dispatcher's coalescing counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.disp.Stats())
}

// MaxBodyBytes caps a data-path request body; a longer one is refused
// with 413 before it is decoded in full.
const MaxBodyBytes = 4 << 20

// decodeBody decodes a JSON request body with UseNumber (so integer keys
// reach the relational layer as int64, not float64), rejecting bodies
// over MaxBodyBytes and anything but whitespace after the one JSON
// value. On failure it writes the error reply and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.UseNumber()
	err := dec.Decode(into)
	if err == nil {
		switch _, terr := dec.Token(); {
		case terr == nil:
			err = errors.New("trailing data after the JSON value")
		case terr != io.EOF:
			err = terr
		}
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("server: bad request body: %w", err))
	return false
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
