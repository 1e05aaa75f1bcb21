package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// failingLog is a commit logger whose append or fsync fails on demand,
// standing in for a WAL on a failing disk.
type failingLog struct {
	logErr, syncErr error
}

func (l *failingLog) LogCommit([]core.RedoOp) error { return l.logErr }
func (l *failingLog) Sync() error                   { return l.syncErr }

// newLoggedServer builds a server over a fresh social registry whose
// commit logger and reply barrier are l.
func newLoggedServer(t *testing.T, l *failingLog) *Server {
	t.Helper()
	soc, err := workload.NewSocial()
	if err != nil {
		t.Fatal(err)
	}
	soc.Reg.SetCommitLogger(l)
	s := New(soc.Reg, Config{MaxBatch: 1})
	s.disp.syncLog = l.Sync
	t.Cleanup(s.disp.Close)
	return s
}

func post(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

func requestBody(t *testing.T, req *Request) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSubmitStatusClassifiesErrors pins the status of each Submit
// failure: a request that fails validation is the client's fault (400);
// a commit whose log append or fsync fails is the server's (500), even
// though the request itself was well-formed.
func TestSubmitStatusClassifiesErrors(t *testing.T) {
	valid := requestBody(t, AddPostRequest(1, 2, 3))
	for _, tc := range []struct {
		name   string
		log    failingLog
		body   string
		status int
		msg    string
	}{
		{"ok", failingLog{}, valid, http.StatusOK, ""},
		{"unknown relation", failingLog{}, `{"ops":[{"op":"count","rel":"nope","s":{}}]}`, http.StatusBadRequest, "nope"},
		{"fsync fails", failingLog{syncErr: errors.New("disk gone")}, valid, http.StatusInternalServerError, "server: wal sync: disk gone"},
		{"append fails", failingLog{logErr: errors.New("disk full")}, valid, http.StatusInternalServerError, "disk full"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newLoggedServer(t, &tc.log)
			rec := post(s, "/v1/txn", tc.body)
			if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.msg) {
				t.Fatalf("status %d body %q, want %d containing %q", rec.Code, rec.Body, tc.status, tc.msg)
			}
		})
	}
}

// TestDecodeBody pins the request-body rules: exactly one JSON value,
// optionally followed by whitespace, within MaxBodyBytes.
func TestDecodeBody(t *testing.T) {
	s := newLoggedServer(t, &failingLog{})
	valid := requestBody(t, AddPostRequest(1, 2, 3))
	for _, tc := range []struct {
		name, body string
		status     int
		msg        string
	}{
		{"one value", valid, http.StatusOK, ""},
		{"trailing newline", valid + "\n", http.StatusOK, ""},
		{"trailing value", `{"ops":[]}{"x":1}`, http.StatusBadRequest, "trailing data"},
		{"trailing value after valid", valid + `{"x":1}`, http.StatusBadRequest, "trailing data"},
		{"trailing garbage", valid + ` x`, http.StatusBadRequest, "invalid character"},
		{"oversize", `{"ops":[],"pad":"` + strings.Repeat("a", MaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge, "too large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if rec := post(s, "/v1/txn", tc.body); rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.msg) {
				t.Fatalf("status %d (%s), want %d containing %q", rec.Code, rec.Body, tc.status, tc.msg)
			}
		})
	}
}
