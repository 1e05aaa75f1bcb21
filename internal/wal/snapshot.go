package wal

// Snapshots. A snapshot file snap-%016x.snap is named after its seal
// LSN and framed like one giant record:
//
//	[8B magic "CRSSNAP1"] [8B seal LSN LE] [4B payload len LE] [4B CRC32-C] [payload]
//
// The payload lists every registered relation — name, column names, and
// its rows' tagged values in schema column order, sorted by the
// relational value order so identical states encode to identical bytes.
// Every count is bounded by the payload bytes left before the decoder
// allocates for it.
// A snapshot is written to a .tmp file, fsynced, renamed into place and
// the directory fsynced, so a crash mid-write leaves either the old
// snapshot set or the new one, never a half file; recovery ignores any
// snapshot whose CRC does not check out and falls back to the next
// newest.
//
// The snapshot protocol (Manager.Snapshot) orders against the log, not
// against writers: seal the log at the current last LSN and rotate to a
// fresh segment FIRST, then dump the registry in one read-only batch.
// Every batch with a record at or below the seal reached its commit
// point — and appended — before the seal was read, still holding its
// locks; the dump's read-only batch cannot validate until those locks
// release, so the dump includes every sealed batch's effects. It may
// also include later batches; replay over the snapshot re-applies their
// records, which idempotent logical redo makes a no-op. Old segments and
// snapshots are deleted only after the rename commits the new snapshot.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/rel"
)

const snapMagic = "CRSSNAP1"

// snapName renders the snapshot file name of a seal LSN.
func snapName(lsn uint64) string {
	return fmt.Sprintf("snap-%016x.snap", lsn)
}

// parseSnapName extracts the seal LSN of a snapshot file name.
func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
	return n, err == nil
}

// listSnapshots returns the directory's snapshot file names sorted
// newest (highest seal LSN) first.
func listSnapshots(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []string
	for _, e := range ents {
		if _, ok := parseSnapName(e.Name()); ok {
			snaps = append(snaps, e.Name())
		}
	}
	sort.Slice(snaps, func(i, j int) bool {
		a, _ := parseSnapName(snaps[i])
		b, _ := parseSnapName(snaps[j])
		return a > b
	})
	return snaps, nil
}

// relDump is one relation's contribution to a snapshot: its registered
// name, schema columns, and rows of values in schema column order.
type relDump struct {
	name string
	cols []string
	rows [][]rel.Value
}

// dumpRegistry captures a consistent registry-wide state: one read-only
// batch holding a full-scan row query per relation, so the dump is a
// serializable snapshot by the same argument as any read-only batch.
// Rows are sorted by the relational value order for deterministic bytes.
func dumpRegistry(reg *core.Registry) ([]relDump, error) {
	rels := reg.Relations()
	// Prepared before the batch: preparing takes the representation latch
	// shared, which the batch already holds, and a second shared hold on
	// one goroutine deadlocks behind a Migrate waiting to take it.
	scans := make([]core.PreparedQuery, len(rels))
	for i, r := range rels {
		q, err := r.PrepareQueryMask(0, r.Schema().FullMask())
		if err != nil {
			return nil, err
		}
		scans[i] = q
	}
	dumps := make([]relDump, len(rels))
	err := reg.BatchReadOnly(func(tx *core.Txn) error {
		for i, r := range rels {
			d := &dumps[i]
			d.name, d.cols = r.Name(), r.Spec().Columns
			err := tx.ExecRows(&scans[i], r.Schema().NewRow(), func(row rel.Row) bool {
				vals := make([]rel.Value, len(d.cols))
				for k := range vals {
					vals[k] = row.At(k)
				}
				d.rows = append(d.rows, vals)
				return true
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range dumps {
		sort.Slice(d.rows, func(a, b int) bool { return compareRows(d.rows[a], d.rows[b]) < 0 })
	}
	return dumps, nil
}

// compareRows orders value slices lexicographically under rel.Compare.
func compareRows(a, b []rel.Value) int {
	for i := range a {
		if c := rel.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// encodeSnapshot renders a full snapshot file image (header + payload).
func encodeSnapshot(sealLSN uint64, dumps []relDump) ([]byte, error) {
	payload := binary.AppendUvarint(nil, uint64(len(dumps)))
	for _, d := range dumps {
		payload = appendString(payload, d.name)
		payload = binary.AppendUvarint(payload, uint64(len(d.cols)))
		for _, c := range d.cols {
			payload = appendString(payload, c)
		}
		payload = binary.AppendUvarint(payload, uint64(len(d.rows)))
		for _, row := range d.rows {
			for _, v := range row {
				var err error
				if payload, err = appendValue(payload, v); err != nil {
					return nil, err
				}
			}
		}
	}
	img := make([]byte, 0, len(payload)+24)
	img = append(img, snapMagic...)
	img = binary.LittleEndian.AppendUint64(img, sealLSN)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(img[8:20], crcTable), crcTable, payload)
	img = binary.LittleEndian.AppendUint32(img, crc)
	return append(img, payload...), nil
}

// decodeSnapshot validates and decodes a snapshot file image.
func decodeSnapshot(img []byte) (uint64, []relDump, error) {
	if len(img) < 24 || string(img[:8]) != snapMagic {
		return 0, nil, fmt.Errorf("wal: bad snapshot header")
	}
	sealLSN := binary.LittleEndian.Uint64(img[8:16])
	plen := binary.LittleEndian.Uint32(img[16:20])
	crc := binary.LittleEndian.Uint32(img[20:24])
	payload := img[24:]
	if uint32(len(payload)) != plen {
		return 0, nil, fmt.Errorf("wal: snapshot length mismatch")
	}
	if crc32.Update(crc32.Checksum(img[8:20], crcTable), crcTable, payload) != crc {
		return 0, nil, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	nrels, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, nil, fmt.Errorf("wal: bad snapshot relation count")
	}
	payload = payload[w:]
	if nrels > uint64(len(payload)) { // each relation takes >= 1 byte; bound before allocating
		return 0, nil, fmt.Errorf("wal: snapshot relation count %d exceeds payload", nrels)
	}
	dumps := make([]relDump, 0, nrels)
	for i := uint64(0); i < nrels; i++ {
		var d relDump
		var err error
		if d.name, payload, err = decodeString(payload); err != nil {
			return 0, nil, err
		}
		ncols, w := binary.Uvarint(payload)
		if w <= 0 || ncols == 0 || ncols > 64 {
			return 0, nil, fmt.Errorf("wal: bad snapshot column count")
		}
		payload = payload[w:]
		d.cols = make([]string, ncols)
		for c := range d.cols {
			if d.cols[c], payload, err = decodeString(payload); err != nil {
				return 0, nil, err
			}
		}
		nrows, w := binary.Uvarint(payload)
		if w <= 0 {
			return 0, nil, fmt.Errorf("wal: bad snapshot row count")
		}
		payload = payload[w:]
		if nrows > uint64(len(payload))/ncols { // each value takes >= 1 byte
			return 0, nil, fmt.Errorf("wal: snapshot row count %d exceeds payload", nrows)
		}
		d.rows = make([][]rel.Value, 0, nrows)
		for r := uint64(0); r < nrows; r++ {
			row := make([]rel.Value, ncols)
			for c := range row {
				if row[c], payload, err = decodeValue(payload); err != nil {
					return 0, nil, err
				}
			}
			d.rows = append(d.rows, row)
		}
		dumps = append(dumps, d)
	}
	if len(payload) != 0 {
		return 0, nil, fmt.Errorf("wal: %d trailing snapshot bytes", len(payload))
	}
	return sealLSN, dumps, nil
}

// restoreBatchRows bounds how many snapshot rows one restore batch
// inserts (keeps lock sets and arenas modest on big snapshots).
const restoreBatchRows = 256

// restoreSnapshot loads a decoded snapshot into a freshly synthesized
// registry (the commit logger must not be attached yet). Every dumped
// relation must exist with matching columns. Each row is replayed as an
// insert redo op that binds every column and is keyed on the full row —
// the redo rule log replay and migration use — in batches of at most
// restoreBatchRows ops.
func restoreSnapshot(reg *core.Registry, dumps []relDump) error {
	for _, d := range dumps {
		r := reg.RelationByName(d.name)
		if r == nil {
			return fmt.Errorf("wal: snapshot names unknown relation %q", d.name)
		}
		cols := r.Spec().Columns
		if len(cols) != len(d.cols) {
			return fmt.Errorf("wal: relation %q: snapshot has %d columns, schema %d", d.name, len(d.cols), len(cols))
		}
		for i := range cols {
			if cols[i] != d.cols[i] {
				return fmt.Errorf("wal: relation %q: snapshot column %q, schema %q", d.name, d.cols[i], cols[i])
			}
		}
		full := r.Schema().FullMask()
		ops := make([]core.RedoOp, 0, min(len(d.rows), restoreBatchRows))
		for off := 0; off < len(d.rows); off += restoreBatchRows {
			ops = ops[:0]
			for _, row := range d.rows[off:min(off+restoreBatchRows, len(d.rows))] {
				ops = append(ops, core.RedoOp{Rel: d.name, Insert: true, Vals: row, RowMask: full, BoundMask: full})
			}
			if err := reg.Replay(ops); err != nil {
				return fmt.Errorf("wal: restoring %q: %w", d.name, err)
			}
		}
	}
	return nil
}

// writeSnapshotFile atomically publishes a snapshot image: temp file,
// fsync, rename, directory fsync.
func writeSnapshotFile(dir string, sealLSN uint64, img []byte) (string, error) {
	name := snapName(sealLSN)
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	crash("snapshot-mid-write")
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	crash("snapshot-pre-rename")
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return name, nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
