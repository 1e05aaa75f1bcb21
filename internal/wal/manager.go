package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncBatch (the default) fsyncs once per dispatcher window, after
	// the group's single LogCommit and before any reply — group commit
	// above is fsync batching below. Acknowledged batches survive a
	// crash; unacknowledged tail records may be truncated.
	SyncBatch SyncPolicy = iota
	// SyncNone never fsyncs: the OS flushes when it pleases. Fastest;
	// a crash may lose acknowledged batches (never corrupt — recovery
	// still cuts at a valid record boundary).
	SyncNone
	// SyncAlways fsyncs inside every LogCommit, before the batch is even
	// delivered in memory. Strictest and slowest; group commit still
	// amortizes it across a window's requests.
	SyncAlways
)

// ParseSyncPolicy maps the -fsync flag values none|batch|always.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "none":
		return SyncNone, nil
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want none, batch or always)", s)
}

// String renders the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncAlways:
		return "always"
	default:
		return "batch"
	}
}

// Options configures Open.
type Options struct {
	// Policy is the fsync policy (zero value: SyncBatch).
	Policy SyncPolicy
	// SnapshotEvery, when positive, takes a background snapshot every
	// that many appended batches; zero disables automatic snapshots
	// (Snapshot can still be called explicitly).
	SnapshotEvery int
}

// Stats is a point-in-time snapshot of the manager's counters, shaped
// for /v1/stats.
type Stats struct {
	// Appends counts LogCommit records written (one per committed
	// mutating batch).
	Appends uint64 `json:"wal_appends"`
	// Fsyncs counts fsyncs of the active segment (Sync calls that found
	// dirty bytes, plus SyncAlways appends and pre-rotation syncs).
	Fsyncs uint64 `json:"wal_fsyncs"`
	// Snapshots counts snapshots successfully published.
	Snapshots uint64 `json:"wal_snapshots"`
	// RecoveredBatches counts redo records replayed by Open.
	RecoveredBatches uint64 `json:"recovered_batches"`
	// LastLSN is the newest assigned LSN.
	LastLSN uint64 `json:"wal_last_lsn"`
	// SnapshotLSN is the seal LSN of the newest published snapshot.
	SnapshotLSN uint64 `json:"wal_snapshot_lsn"`
}

// crashHook, when non-nil, runs at named crash points on the append and
// snapshot paths; the subprocess crash harness sets it to os.Exit at a
// chosen point. Points: "pre-append", "post-append" (appended, not yet
// delivered), "snapshot-rotated", "snapshot-mid-write",
// "snapshot-pre-rename", "snapshot-pre-cleanup".
var crashHook func(point string)

// crash invokes the crash hook if armed.
func crash(point string) {
	if crashHook != nil {
		crashHook(point)
	}
}

// Manager is the durability engine of one registry: it implements
// core.CommitLogger over a directory of CRC-checked segment files and
// snapshot files. Open recovers the registry from the directory, then
// the caller attaches the manager with Registry.SetCommitLogger and
// (for group commit) calls Sync at each reply boundary.
type Manager struct {
	dir  string
	reg  *core.Registry
	opts Options

	// mu serializes appends, syncs and segment rotation. LogCommit runs
	// with registry locks held and takes mu, so nothing holding mu may
	// touch the registry (Snapshot releases mu before its dump batch).
	mu       sync.Mutex
	f        *os.File
	buf      []byte
	lsn      uint64 // last assigned LSN
	segFirst uint64 // active segment's first LSN
	dirty    bool   // appended bytes not yet fsynced
	err      error  // sticky I/O error; fails all further appends

	// snapMu serializes snapshots (explicit and background).
	snapMu   sync.Mutex
	snapErr  error // last background snapshot failure, surfaced by Close
	snapCh   chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup
	closed   bool
	sinceSnp int

	appends   atomic.Uint64
	fsyncs    atomic.Uint64
	snaps     atomic.Uint64
	recovered atomic.Uint64
	lastLSN   atomic.Uint64
	snapLSN   atomic.Uint64
}

// Open recovers the registry from dir and returns a manager appending to
// it. Recovery loads the newest CRC-valid snapshot (replaying its rows as
// full-row insert redo ops, in batches), replays every redo record past the snapshot's seal
// LSN in order — one Registry.Batch per record — and truncates a torn or
// CRC-failing tail in the final segment; damage in any earlier segment
// is corruption of acknowledged history and fails Open. The registry
// must be freshly synthesized (same relations, empty) and must not get
// its commit logger attached until Open returns, so replay is never
// re-logged.
func Open(dir string, reg *core.Registry, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{dir: dir, reg: reg, opts: opts,
		snapCh: make(chan struct{}, 1), done: make(chan struct{})}

	// Sweep interrupted snapshot temp files: never valid, never named.
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	// Newest valid snapshot wins; corrupt ones are skipped, not fatal —
	// the next older snapshot plus a longer replay reaches the same
	// state. Schema mismatches ARE fatal (wrong registry, not bad disk).
	snapLSN := uint64(0)
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range snaps {
		img, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		lsn, dumps, err := decodeSnapshot(img)
		if err != nil {
			continue
		}
		if err := restoreSnapshot(reg, dumps); err != nil {
			return nil, err
		}
		snapLSN = lsn
		break
	}
	m.snapLSN.Store(snapLSN)

	// Replay the redo tail: records above the snapshot seal, one batch
	// per record, in LSN order.
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	lastLSN := snapLSN
	if len(segs) > 0 {
		if first, _ := parseSegName(segs[0]); first <= snapLSN {
			lastLSN = first - 1 // validate the already-snapshotted prefix too
		} else if first != snapLSN+1 {
			return nil, fmt.Errorf("wal: oldest segment %s starts past snapshot LSN %d", segs[0], snapLSN)
		}
	}
	widths := map[string]int{}
	for _, r := range reg.Relations() {
		widths[r.Name()] = r.Schema().Len()
	}
	activeName := ""
	for i, name := range segs {
		path := filepath.Join(dir, name)
		res, err := scanSegment(path, lastLSN, snapLSN, func(lsn uint64, payload []byte) error {
			ops, err := decodeOps(payload, widths)
			if err != nil {
				return fmt.Errorf("wal: record %d: %w", lsn, err)
			}
			if err := reg.Replay(ops); err != nil {
				return fmt.Errorf("wal: replaying record %d: %w", lsn, err)
			}
			m.recovered.Add(1)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if res.torn {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("wal: corrupt record in non-final segment: %w", res.tornErr)
			}
			// The torn-tail rule: an interrupted append in the final
			// segment was never acknowledged — cut it off. A segment cut
			// below even its header is removed outright; appends continue
			// in its predecessor (record LSNs stay contiguous).
			if res.validEnd < segHdrLen {
				if err := os.Remove(path); err != nil {
					return nil, err
				}
				continue
			}
			if err := os.Truncate(path, res.validEnd); err != nil {
				return nil, err
			}
		}
		lastLSN = res.lastLSN
		activeName = name
	}
	m.lsn = lastLSN
	m.lastLSN.Store(lastLSN)

	// Append into the final surviving segment, or start a fresh one.
	if activeName != "" {
		f, err := os.OpenFile(filepath.Join(dir, activeName), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		m.f = f
		m.segFirst, _ = parseSegName(activeName)
	} else {
		if err := m.openSegment(lastLSN + 1); err != nil {
			return nil, err
		}
	}

	if opts.SnapshotEvery > 0 {
		m.wg.Add(1)
		go m.snapshotLoop()
	}
	return m, nil
}

// openSegment creates and switches to a fresh segment (mu held or
// single-threaded Open).
func (m *Manager) openSegment(firstLSN uint64) error {
	path := filepath.Join(m.dir, segName(firstLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(writeSegHeader(nil, firstLSN)); err != nil {
		f.Close()
		return err
	}
	if m.f != nil {
		m.f.Close()
	}
	m.f = f
	m.segFirst = firstLSN
	return nil
}

// LogCommit implements core.CommitLogger: encode the batch's ops as the
// next record and append it to the active segment. Called at the commit
// point with the batch's locks held, so record order is serialization
// order for conflicting batches. Under SyncAlways the record is fsynced
// before returning; otherwise durability waits for Sync (or the OS). An
// I/O error is sticky — the manager refuses all further appends, and the
// failed batch was rolled back by core.
func (m *Manager) LogCommit(ops []core.RedoOp) error {
	if len(ops) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	lsn := m.lsn + 1
	// Build the whole record in one reusable buffer: a 16-byte header
	// placeholder, the encoded payload, then the header backfilled.
	buf := append(m.buf[:0], make([]byte, recHdrLen)...)
	buf, err := appendOps(buf, ops)
	if err != nil {
		m.err = err
		return err
	}
	m.buf = buf
	payload := buf[recHdrLen:]
	binary.LittleEndian.PutUint64(buf[0:8], lsn)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(buf[0:12], crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(buf[12:16], crc)
	crash("pre-append")
	if _, err := m.f.Write(buf); err != nil {
		m.err = err
		return err
	}
	m.lsn = lsn
	m.lastLSN.Store(lsn)
	m.dirty = true
	m.appends.Add(1)
	if m.opts.Policy == SyncAlways {
		if err := m.f.Sync(); err != nil {
			m.err = err
			return err
		}
		m.dirty = false
		m.fsyncs.Add(1)
	}
	crash("post-append")
	if m.opts.SnapshotEvery > 0 {
		m.sinceSnp++
		if m.sinceSnp >= m.opts.SnapshotEvery {
			m.sinceSnp = 0
			select {
			case m.snapCh <- struct{}{}:
			default:
			}
		}
	}
	return nil
}

// Sync makes every appended record durable before returning — the reply
// barrier of group commit. Under SyncBatch it fsyncs iff unsynced bytes
// exist (so one mutating window costs exactly one fsync and read-only
// windows cost none); under SyncAlways appends already synced and Sync
// is a no-op; under SyncNone it is always a no-op.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	if m.opts.Policy == SyncNone || !m.dirty {
		return nil
	}
	if err := m.f.Sync(); err != nil {
		m.err = err
		return err
	}
	m.dirty = false
	m.fsyncs.Add(1)
	return nil
}

// Snapshot publishes a consistent registry snapshot and prunes the log:
// seal at the current last LSN, rotate to a fresh segment, dump the
// registry in one read-only batch (mu NOT held — LogCommit holds
// registry locks when it takes mu, so holding mu across a registry
// batch would invert that order), write-rename the snapshot file, then
// delete sealed segments and older snapshots. See snapshot.go for why
// the seal is conservative and replay over the snapshot is idempotent.
func (m *Manager) Snapshot() error {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()

	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return m.err
	}
	sealLSN := m.lsn
	if sealLSN == m.snapLSN.Load() && sealLSN > 0 {
		m.mu.Unlock()
		return nil // nothing new to snapshot
	}
	if m.segFirst != sealLSN+1 {
		// Seal the active segment: sync its records (they are about to be
		// the only copy until the snapshot lands... and after cleanup the
		// snapshot IS the only copy of the sealed prefix), then rotate.
		if m.dirty {
			if err := m.f.Sync(); err != nil {
				m.err = err
				m.mu.Unlock()
				return err
			}
			m.dirty = false
			m.fsyncs.Add(1)
		}
		if err := m.openSegment(sealLSN + 1); err != nil {
			m.mu.Unlock()
			return err
		}
	}
	m.mu.Unlock()
	crash("snapshot-rotated")

	dumps, err := dumpRegistry(m.reg)
	if err != nil {
		return err
	}
	img, err := encodeSnapshot(sealLSN, dumps)
	if err != nil {
		return err
	}
	newSnap, err := writeSnapshotFile(m.dir, sealLSN, img)
	if err != nil {
		return err
	}
	m.snapLSN.Store(sealLSN)
	m.snaps.Add(1)
	crash("snapshot-pre-cleanup")

	// Cleanup: every non-active segment holds only records <= sealLSN,
	// all captured by the published snapshot; older snapshots are
	// superseded. Failures here are cosmetic (recovery skips records
	// below the seal), so errors are ignored.
	m.mu.Lock()
	active := segName(m.segFirst)
	m.mu.Unlock()
	segs, _ := listSegments(m.dir)
	for _, name := range segs {
		if name != active {
			os.Remove(filepath.Join(m.dir, name))
		}
	}
	snaps, _ := listSnapshots(m.dir)
	for _, name := range snaps {
		if name != newSnap {
			os.Remove(filepath.Join(m.dir, name))
		}
	}
	return nil
}

// snapshotLoop services background snapshot requests signalled by
// LogCommit every SnapshotEvery appends.
func (m *Manager) snapshotLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case <-m.snapCh:
			if err := m.Snapshot(); err != nil {
				m.snapMu.Lock()
				m.snapErr = err
				m.snapMu.Unlock()
			}
		}
	}
}

// Stats returns the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Appends:          m.appends.Load(),
		Fsyncs:           m.fsyncs.Load(),
		Snapshots:        m.snaps.Load(),
		RecoveredBatches: m.recovered.Load(),
		LastLSN:          m.lastLSN.Load(),
		SnapshotLSN:      m.snapLSN.Load(),
	}
}

// Close syncs outstanding records (except under SyncNone), stops the
// background snapshotter and closes the active segment. It reports the
// first of: a sticky append error, a background snapshot failure, or a
// final-sync/close error. The manager must be detached (or the registry
// quiesced) first.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.done)
	m.wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.err
	if err == nil && m.dirty && m.opts.Policy != SyncNone {
		if err = m.f.Sync(); err == nil {
			m.dirty = false
			m.fsyncs.Add(1)
		}
	}
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	m.f = nil
	if err == nil {
		m.snapMu.Lock()
		err = m.snapErr
		m.snapMu.Unlock()
	}
	return err
}
