package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/workload"
)

// stateBytes renders a registry's full state as canonical snapshot bytes
// (dumpRegistry sorts rows), so two registries are state-equal iff their
// stateBytes are byte-for-byte equal.
func stateBytes(t *testing.T, reg *core.Registry) []byte {
	t.Helper()
	dumps, err := dumpRegistry(reg)
	if err != nil {
		t.Fatalf("dumpRegistry: %v", err)
	}
	img, err := encodeSnapshot(0, dumps)
	if err != nil {
		t.Fatalf("encodeSnapshot: %v", err)
	}
	return img
}

// socialBatch applies deterministic mixed batch i to a social registry:
// an insert-heavy mix with counts (OCC mixed batches), pure-mutation
// batches (2PL) and periodic removes, covering every logged commit path.
func socialBatch(t testing.TB, soc *workload.Social, i int) error {
	u := int64(i % 17)
	switch i % 4 {
	case 0: // mixed: inserts + count => registry OCC commit
		return soc.Reg.Batch(func(tx *core.Txn) error {
			if _, err := tx.InsertInto(soc.Users, rel.T("user", u), rel.T("posts", int64(i))); err != nil {
				return err
			}
			if _, err := tx.InsertInto(soc.Posts, rel.T("author", u, "post", int64(i)), rel.T("ts", int64(2*i))); err != nil {
				return err
			}
			_, err := tx.CountIn(soc.Posts, rel.T("author", u))
			return err
		})
	case 1: // pure mutations => pessimistic registry commit
		return soc.Reg.Batch(func(tx *core.Txn) error {
			if _, err := tx.InsertInto(soc.Follows, rel.T("src", u, "dst", int64((i+1)%17)), rel.T("since", int64(i))); err != nil {
				return err
			}
			_, err := tx.InsertInto(soc.Posts, rel.T("author", u, "post", int64(1000+i)), rel.T("ts", int64(i)))
			return err
		})
	case 2: // single-relation mixed batch => relation OCC commit
		return soc.Posts.Batch(func(tx *core.Txn) error {
			if _, err := tx.Insert(rel.T("author", u, "post", int64(2000+i)), rel.T("ts", int64(i))); err != nil {
				return err
			}
			_, err := tx.Count(rel.T("author", u))
			return err
		})
	default: // remove + insert, single relation, pure mutation 2PL
		return soc.Posts.Batch(func(tx *core.Txn) error {
			if _, err := tx.Remove(rel.T("author", u, "post", int64(2000+i-1))); err != nil {
				return err
			}
			_, err := tx.Insert(rel.T("author", u, "post", int64(3000+i)), rel.T("ts", int64(i)))
			return err
		})
	}
}

// runSocial opens a manager over dir, applies n deterministic batches to
// a fresh social registry and returns it with the manager still open.
func runSocial(t *testing.T, dir string, n int, opts Options) (*workload.Social, *Manager) {
	t.Helper()
	soc := workload.MustSocial()
	m, err := Open(dir, soc.Reg, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	soc.Reg.SetCommitLogger(m)
	for i := 0; i < n; i++ {
		if err := socialBatch(t, soc, i); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return soc, m
}

// oracle builds the never-crashed reference state: n batches applied to
// a fresh registry with no logging at all.
func oracle(t *testing.T, n int) []byte {
	t.Helper()
	soc := workload.MustSocial()
	for i := 0; i < n; i++ {
		if err := socialBatch(t, soc, i); err != nil {
			t.Fatalf("oracle batch %d: %v", i, err)
		}
	}
	return stateBytes(t, soc.Reg)
}

// recover opens dir into a fresh social registry and returns it with the
// manager.
func recoverSocial(t *testing.T, dir string, opts Options) (*workload.Social, *Manager) {
	t.Helper()
	soc := workload.MustSocial()
	m, err := Open(dir, soc.Reg, opts)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	return soc, m
}

func TestValueRoundtrip(t *testing.T) {
	vals := []rel.Value{nil, false, true, int(-7), int(42), int64(-1 << 40), int64(99), uint64(1 << 63), float64(3.25), "", "hello"}
	var b []byte
	for _, v := range vals {
		var err error
		if b, err = appendValue(b, v); err != nil {
			t.Fatalf("append %T: %v", v, err)
		}
	}
	rest := b
	for _, want := range vals {
		var got rel.Value
		var err error
		if got, rest, err = decodeValue(rest); err != nil {
			t.Fatalf("decode: %v", err)
		}
		// Exact dynamic type AND value: recovered state must be
		// indistinguishable from the original.
		switch w := want.(type) {
		case nil:
			if got != nil {
				t.Fatalf("got %#v, want nil", got)
			}
		case int:
			if g, ok := got.(int); !ok || g != w {
				t.Fatalf("got %#v (%T), want %#v", got, got, want)
			}
		case int64:
			if g, ok := got.(int64); !ok || g != w {
				t.Fatalf("got %#v (%T), want %#v", got, got, want)
			}
		default:
			if got != want {
				t.Fatalf("got %#v (%T), want %#v", got, got, want)
			}
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	dir := t.TempDir()
	soc, m := runSocial(t, dir, 0, Options{})
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rsoc, rm := recoverSocial(t, dir, Options{})
	defer rm.Close()
	if !bytes.Equal(stateBytes(t, soc.Reg), stateBytes(t, rsoc.Reg)) {
		t.Fatal("empty recovery diverged")
	}
}

func TestLogReplayRoundtrip(t *testing.T) {
	const n = 60
	dir := t.TempDir()
	soc, m := runSocial(t, dir, n, Options{})
	if got := m.Stats().Appends; got != n {
		t.Fatalf("appends = %d, want %d (one record per committed batch)", got, n)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rsoc, rm := recoverSocial(t, dir, Options{})
	defer rm.Close()
	if got := rm.Stats().RecoveredBatches; got != n {
		t.Fatalf("recovered %d batches, want %d", got, n)
	}
	if !bytes.Equal(stateBytes(t, soc.Reg), stateBytes(t, rsoc.Reg)) {
		t.Fatal("recovered state differs from the live registry")
	}
	if want := oracle(t, n); !bytes.Equal(want, stateBytes(t, rsoc.Reg)) {
		t.Fatal("recovered state differs from the never-crashed oracle")
	}

	// The recovered manager keeps logging: more batches, recover again.
	rsoc.Reg.SetCommitLogger(rm)
	for i := n; i < n+10; i++ {
		if err := socialBatch(t, rsoc, i); err != nil {
			t.Fatalf("post-recovery batch %d: %v", i, err)
		}
	}
	if err := rm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2, m2 := recoverSocial(t, dir, Options{})
	defer m2.Close()
	if want := oracle(t, n+10); !bytes.Equal(want, stateBytes(t, r2.Reg)) {
		t.Fatal("second recovery differs from the oracle")
	}
}

func TestSnapshotPrunesAndRecovers(t *testing.T) {
	const before, after = 40, 23
	dir := t.TempDir()
	soc, m := runSocial(t, dir, before, Options{})
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("%d segments after snapshot, want 1 (sealed segments pruned)", len(segs))
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots, want 1", len(snaps))
	}
	for i := before; i < before+after; i++ {
		if err := socialBatch(t, soc, i); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rsoc, rm := recoverSocial(t, dir, Options{})
	defer rm.Close()
	st := rm.Stats()
	if st.RecoveredBatches != after {
		t.Fatalf("replayed %d records, want only the %d past the snapshot seal", st.RecoveredBatches, after)
	}
	if st.SnapshotLSN != before {
		t.Fatalf("snapshot LSN %d, want %d", st.SnapshotLSN, before)
	}
	if want := oracle(t, before+after); !bytes.Equal(want, stateBytes(t, rsoc.Reg)) {
		t.Fatal("snapshot+tail recovery differs from the oracle")
	}
}

func TestReplayIdempotentOverSnapshot(t *testing.T) {
	// The conservative-seal argument: a snapshot may already contain the
	// effects of records past its seal; replaying them over it must be a
	// no-op. Restore a dump of the FULL state, then re-apply the redo of
	// the last batches on top.
	const n = 24
	soc := workload.MustSocial()
	var logged [][]core.RedoOp
	soc.Reg.SetCommitLogger(logFunc(func(ops []core.RedoOp) error {
		cp := make([]core.RedoOp, len(ops))
		for i, op := range ops {
			vals := append([]rel.Value(nil), op.Vals...)
			cp[i] = core.RedoOp{Rel: op.Rel, Insert: op.Insert, Vals: vals, RowMask: op.RowMask, BoundMask: op.BoundMask}
		}
		logged = append(logged, cp)
		return nil
	}))
	for i := 0; i < n; i++ {
		if err := socialBatch(t, soc, i); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	dumps, err := dumpRegistry(soc.Reg)
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	restored := workload.MustSocial()
	if err := restoreSnapshot(restored.Reg, dumps); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(stateBytes(t, soc.Reg), stateBytes(t, restored.Reg)) {
		t.Fatal("snapshot restore diverged before replay")
	}
	for _, ops := range logged[n/2:] { // a suffix of already-applied history
		if err := restored.Reg.Replay(ops); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	if !bytes.Equal(stateBytes(t, soc.Reg), stateBytes(t, restored.Reg)) {
		t.Fatal("re-applying an already-applied suffix changed the state")
	}
}

// logFunc adapts a function to core.CommitLogger for tests.
type logFunc func(ops []core.RedoOp) error

func (f logFunc) LogCommit(ops []core.RedoOp) error { return f(ops) }

func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	return filepath.Join(dir, segs[len(segs)-1])
}

func TestTornTailTruncated(t *testing.T) {
	const n = 20
	dir := t.TempDir()
	_, m := runSocial(t, dir, n, Options{})
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A torn append: half a record header, then half a plausible record.
	path := lastSegment(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	pre, _ := os.Stat(path)
	if _, err := f.Write([]byte{21, 0, 0, 0, 0, 0, 0, 0, 200, 1}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rsoc, rm := recoverSocial(t, dir, Options{})
	if want := oracle(t, n); !bytes.Equal(want, stateBytes(t, rsoc.Reg)) {
		t.Fatal("torn-tail recovery differs from the oracle")
	}
	if post, _ := os.Stat(path); post.Size() != pre.Size() {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", post.Size(), pre.Size())
	}
	// Appends continue cleanly after the truncation.
	rsoc.Reg.SetCommitLogger(rm)
	if err := socialBatch(t, rsoc, n); err != nil {
		t.Fatalf("post-truncation batch: %v", err)
	}
	if err := rm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2, m2 := recoverSocial(t, dir, Options{})
	defer m2.Close()
	if want := oracle(t, n+1); !bytes.Equal(want, stateBytes(t, r2.Reg)) {
		t.Fatal("recovery after truncation+append differs from the oracle")
	}
}

func TestCorruptCRCTailTruncated(t *testing.T) {
	const n = 12
	dir := t.TempDir()
	_, m := runSocial(t, dir, n, Options{})
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip one byte in the FINAL record's payload: CRC fails, the record
	// (and only it) is truncated away.
	path := lastSegment(t, dir)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xff
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	rsoc, rm := recoverSocial(t, dir, Options{})
	defer rm.Close()
	if got := rm.Stats().RecoveredBatches; got != n-1 {
		t.Fatalf("recovered %d batches, want %d (corrupt final record dropped)", got, n-1)
	}
	if want := oracle(t, n-1); !bytes.Equal(want, stateBytes(t, rsoc.Reg)) {
		t.Fatal("corrupt-CRC recovery differs from the n-1 oracle")
	}
}

func TestCorruptEarlierSegmentFails(t *testing.T) {
	// Hand-craft two segments and corrupt a record in the FIRST: that is
	// acknowledged history, not a torn tail, so Open must refuse.
	dir := t.TempDir()
	op := core.RedoOp{Rel: "users", Insert: true, Vals: []rel.Value{int64(5), int64(1)}, RowMask: 3, BoundMask: 2}
	mkseg := func(firstLSN uint64, n int) []byte {
		b := writeSegHeader(nil, firstLSN)
		for i := 0; i < n; i++ {
			payload, err := appendOps(nil, []core.RedoOp{op})
			if err != nil {
				t.Fatal(err)
			}
			b = frameRecord(b, firstLSN+uint64(i), payload)
		}
		return b
	}
	seg1 := mkseg(1, 2)
	seg1[len(seg1)-1] ^= 0xff // corrupt the second record of segment one
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(3)), mkseg(3, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	soc := workload.MustSocial()
	if _, err := Open(dir, soc.Reg, Options{}); err == nil {
		t.Fatal("Open accepted corruption in a non-final segment")
	}
}

// TestRecoveryRejectsMalformedOps feeds recovery records that decode but
// do not fit their relation: a row mask past the schema's columns, and an
// insert that leaves a column unbound. Recovery must refuse each with an
// error instead of replaying it.
func TestRecoveryRejectsMalformedOps(t *testing.T) {
	cases := []struct {
		name string
		op   core.RedoOp
		want string
	}{
		{"row mask exceeds schema", core.RedoOp{Rel: "users", Vals: []rel.Value{nil, int64(1), int64(7)}, RowMask: 6, BoundMask: 6}, "exceeds schema"},
		{"insert misses a column", core.RedoOp{Rel: "users", Insert: true, Vals: []rel.Value{nil, int64(1)}, RowMask: 2, BoundMask: 2}, "insert binds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			payload, err := appendOps(nil, []core.RedoOp{tc.op})
			if err != nil {
				t.Fatal(err)
			}
			seg := frameRecord(writeSegHeader(nil, 1), 1, payload)
			if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(dir, workload.MustSocial().Reg, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestDecodeOpsAtRelationWidth decodes a logged posts remove, which binds
// only (author, post): its Vals come back at the relation's three
// columns, so replay re-executes it without widening the row, and the
// decoded remove replays.
func TestDecodeOpsAtRelationWidth(t *testing.T) {
	soc := workload.MustSocial()
	widths := map[string]int{}
	for _, r := range soc.Reg.Relations() {
		widths[r.Name()] = r.Schema().Len()
	}
	rm := core.RedoOp{Rel: "posts", Vals: []rel.Value{int64(4), int64(9)}, RowMask: 3, BoundMask: 3}
	payload, err := appendOps(nil, []core.RedoOp{rm})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := decodeOps(payload, widths)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || len(ops[0].Vals) != 3 {
		t.Fatalf("decoded %+v, want one op with 3 values", ops)
	}
	if err := soc.Reg.Replay(ops); err != nil {
		t.Fatalf("Replay: %v", err)
	}
}

func TestCorruptSnapshotWithPrunedLogFails(t *testing.T) {
	// After pruning, the snapshot is the only copy of the sealed prefix;
	// if it is corrupt, recovery must fail loudly rather than replay the
	// tail onto an empty registry.
	dir := t.TempDir()
	soc, m := runSocial(t, dir, 10, Options{})
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := socialBatch(t, soc, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snaps, _ := listSnapshots(dir)
	path := filepath.Join(dir, snaps[0])
	img, _ := os.ReadFile(path)
	img[len(img)-1] ^= 0xff
	os.WriteFile(path, img, 0o644)
	fresh := workload.MustSocial()
	if _, err := Open(dir, fresh.Reg, Options{}); err == nil {
		t.Fatal("Open silently recovered past a corrupt snapshot with a pruned log")
	}
}

func TestLogFailureAbortsBatch(t *testing.T) {
	dir := t.TempDir()
	soc, m := runSocial(t, dir, 8, Options{})
	defer m.Close()
	before := stateBytes(t, soc.Reg)
	m.mu.Lock()
	m.f.Close() // force every subsequent append to fail
	m.mu.Unlock()

	// Pure-mutation (2PL) and mixed (OCC) batches must both surface the
	// error and leave the registry untouched.
	if err := socialBatch(t, soc, 9); err == nil { // i%4==1: pure mutations
		t.Fatal("2PL batch committed despite a failed log append")
	}
	if err := socialBatch(t, soc, 8); err == nil { // i%4==0: mixed OCC
		t.Fatal("OCC batch committed despite a failed log append")
	}
	if !bytes.Equal(before, stateBytes(t, soc.Reg)) {
		t.Fatal("failed-append batch left partial state behind")
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		dir := t.TempDir()
		_, m := runSocial(t, dir, 10, Options{Policy: SyncAlways})
		defer m.Close()
		st := m.Stats()
		if st.Fsyncs != st.Appends || st.Fsyncs != 10 {
			t.Fatalf("fsyncs %d appends %d, want 10/10 under SyncAlways", st.Fsyncs, st.Appends)
		}
	})
	t.Run("batch", func(t *testing.T) {
		dir := t.TempDir()
		soc, m := runSocial(t, dir, 10, Options{Policy: SyncBatch})
		defer m.Close()
		if st := m.Stats(); st.Fsyncs != 0 {
			t.Fatalf("fsyncs %d before any Sync", st.Fsyncs)
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(); err != nil { // nothing new: must not fsync again
			t.Fatal(err)
		}
		if st := m.Stats(); st.Fsyncs != 1 {
			t.Fatalf("fsyncs %d after Sync+idle Sync, want 1", st.Fsyncs)
		}
		if err := socialBatch(t, soc, 10); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.Fsyncs != 2 {
			t.Fatalf("fsyncs %d after one more batch+Sync, want 2", st.Fsyncs)
		}
	})
	t.Run("none", func(t *testing.T) {
		dir := t.TempDir()
		_, m := runSocial(t, dir, 10, Options{Policy: SyncNone})
		defer m.Close()
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.Fsyncs != 0 {
			t.Fatalf("fsyncs %d under SyncNone, want 0", st.Fsyncs)
		}
	})
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"none", SyncNone}, {"batch", SyncBatch}, {"always", SyncAlways}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

func TestAutomaticSnapshots(t *testing.T) {
	dir := t.TempDir()
	soc, m := runSocial(t, dir, 25, Options{SnapshotEvery: 10})
	// The background snapshotter is asynchronous; Snapshot() here both
	// drains any in-flight signal (snapMu) and seals the rest.
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if st := m.Stats(); st.Snapshots == 0 {
		t.Fatal("no snapshots taken")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rsoc, rm := recoverSocial(t, dir, Options{})
	defer rm.Close()
	_ = soc
	if want := oracle(t, 25); !bytes.Equal(want, stateBytes(t, rsoc.Reg)) {
		t.Fatal("recovery after automatic snapshots differs from the oracle")
	}
}
