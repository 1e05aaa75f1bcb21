package main

import (
	"errors"
	"testing"

	"repro/internal/core"
)

type failingLogger struct{ err error }

func (l failingLogger) LogCommit([]core.RedoOp) error { return l.err }

func TestTimedLoggerPassesTheInnerErrorThrough(t *testing.T) {
	sentinel := errors.New("disk full")
	l := &timedLogger{inner: failingLogger{err: sentinel}}
	if err := l.LogCommit([]core.RedoOp{{Rel: "posts"}}); err != sentinel {
		t.Errorf("LogCommit returned %v, want the inner error itself", err)
	}
	if l.calls != 1 || l.end.Before(l.start) || l.start.IsZero() {
		t.Errorf("span not recorded: calls %d start %v end %v", l.calls, l.start, l.end)
	}
	l.inner = failingLogger{}
	if err := l.LogCommit(nil); err != nil {
		t.Errorf("LogCommit returned %v, want nil", err)
	}
	if l.calls != 2 {
		t.Errorf("calls = %d, want 2", l.calls)
	}
}
