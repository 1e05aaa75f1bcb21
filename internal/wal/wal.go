// Package wal gives the synthesized registry its durability half: a
// write-ahead logical redo log appended at every batch's commit point
// (core's CommitLogger hook), periodic registry-wide snapshots, and
// crash recovery that loads the newest valid snapshot and replays the
// redo tail, both through Registry.Replay: a snapshot row is restored as
// an insert redo op that binds every column and is keyed on the full
// row, so log replay, snapshot restore and migration share one redo
// rule.
//
// The unit of logging is one committed batch: core calls LogCommit after
// a batch's apply phase completes (2PL) or its read-set validates (OCC)
// but before any result is delivered, while every lock the batch holds
// is still held — so the log order of conflicting batches is exactly
// their serialization order, and any prefix of the log replays to a
// serializable prefix of the committed history. Records are
// length-prefixed and CRC-checked; recovery truncates a torn or
// corrupted tail in the final segment (an interrupted append that never
// acknowledged) and refuses corruption anywhere earlier.
//
// Group commit above is fsync batching below: the wire dispatcher closes
// a window, commits one registry batch (one LogCommit), then calls Sync
// once before releasing any reply — one fsync covers every client in the
// window. The SyncPolicy knob trades that guarantee down (SyncNone) or
// up (SyncAlways).
//
// Replay is idempotent — an insert is put-if-absent, a remove is an
// idempotent delete, so re-applying a suffix of already-applied ops is a
// no-op. Snapshots exploit that: Snapshot seals the log at the current
// LSN, rotates to a fresh segment, and only then dumps the registry
// (one consistent read-only batch), so the dump may include batches
// later than the seal — replaying them over the snapshot is harmless,
// and nothing newer than the seal is ever deleted.
package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/rel"
)

// Value tag bytes of the record and snapshot codecs. Every supported
// rel.Value dynamic type gets its own tag, so a decoded value has the
// exact dynamic type that was logged and recovered state is
// byte-for-byte comparable with a never-crashed oracle.
const (
	tagNil     = 0
	tagFalse   = 1
	tagTrue    = 2
	tagInt     = 3 // zigzag varint, dynamic type int
	tagInt64   = 4 // zigzag varint, dynamic type int64
	tagUint64  = 5 // uvarint
	tagFloat64 = 6 // 8 bytes, IEEE 754 bits little-endian
	tagString  = 7 // uvarint length + bytes
)

// appendValue appends the tagged encoding of one rel.Value.
func appendValue(b []byte, v rel.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case int:
		b = append(b, tagInt)
		return binary.AppendVarint(b, int64(x)), nil
	case int64:
		b = append(b, tagInt64)
		return binary.AppendVarint(b, x), nil
	case uint64:
		b = append(b, tagUint64)
		return binary.AppendUvarint(b, x), nil
	case float64:
		b = append(b, tagFloat64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(x)), nil
	case string:
		b = append(b, tagString)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...), nil
	default:
		return nil, fmt.Errorf("wal: unsupported value type %T", v)
	}
}

// decodeValue decodes one tagged value, returning it and the rest of b.
func decodeValue(b []byte) (rel.Value, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("wal: truncated value")
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagNil:
		return nil, b, nil
	case tagFalse:
		return false, b, nil
	case tagTrue:
		return true, b, nil
	case tagInt, tagInt64:
		x, n := binary.Varint(b)
		if n <= 0 {
			return nil, nil, fmt.Errorf("wal: bad varint value")
		}
		if tag == tagInt {
			return int(x), b[n:], nil
		}
		return x, b[n:], nil
	case tagUint64:
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, nil, fmt.Errorf("wal: bad uvarint value")
		}
		return x, b[n:], nil
	case tagFloat64:
		if len(b) < 8 {
			return nil, nil, fmt.Errorf("wal: truncated float value")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
	case tagString:
		n, w := binary.Uvarint(b)
		if w <= 0 || uint64(len(b)-w) < n {
			return nil, nil, fmt.Errorf("wal: truncated string value")
		}
		return string(b[w : w+int(n)]), b[w+int(n):], nil
	default:
		return nil, nil, fmt.Errorf("wal: unknown value tag %d", tag)
	}
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decodeString decodes a uvarint-length-prefixed string.
func decodeString(b []byte) (string, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || uint64(len(b)-w) < n {
		return "", nil, fmt.Errorf("wal: truncated string")
	}
	return string(b[w : w+int(n)]), b[w+int(n):], nil
}

// appendOps appends the payload encoding of one batch's redo ops: a
// uvarint op count, then per op a kind byte (1 insert, 0 remove), the
// relation name, the row and bound masks, and the tagged values of the
// columns RowMask binds, in ascending column order.
func appendOps(b []byte, ops []core.RedoOp) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		if op.Insert {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendString(b, op.Rel)
		b = binary.AppendUvarint(b, op.RowMask)
		b = binary.AppendUvarint(b, op.BoundMask)
		for mask := op.RowMask; mask != 0; {
			c := bits.TrailingZeros64(mask)
			mask &^= 1 << uint(c)
			var err error
			if b, err = appendValue(b, op.Vals[c]); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// decodeOps decodes a record payload back into redo ops. Each op's Vals
// slice is allocated once at its relation's width in widths, or out to
// the highest column RowMask binds where that is wider or the relation
// is unknown, which replay then rejects.
func decodeOps(b []byte, widths map[string]int) ([]core.RedoOp, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, fmt.Errorf("wal: bad op count")
	}
	b = b[w:]
	if n > uint64(len(b)) { // each op takes >= 1 byte; cheap bound before allocating
		return nil, fmt.Errorf("wal: op count %d exceeds payload", n)
	}
	ops := make([]core.RedoOp, 0, n)
	for k := uint64(0); k < n; k++ {
		if len(b) == 0 {
			return nil, fmt.Errorf("wal: truncated op")
		}
		kind := b[0]
		b = b[1:]
		if kind > 1 {
			return nil, fmt.Errorf("wal: unknown op kind %d", kind)
		}
		var op core.RedoOp
		op.Insert = kind == 1
		var err error
		if op.Rel, b, err = decodeString(b); err != nil {
			return nil, err
		}
		var rw int
		if op.RowMask, rw = binary.Uvarint(b); rw <= 0 {
			return nil, fmt.Errorf("wal: bad row mask")
		}
		b = b[rw:]
		if op.BoundMask, rw = binary.Uvarint(b); rw <= 0 {
			return nil, fmt.Errorf("wal: bad bound mask")
		}
		b = b[rw:]
		if op.RowMask == 0 || op.BoundMask&^op.RowMask != 0 {
			return nil, fmt.Errorf("wal: inconsistent op masks %x/%x", op.RowMask, op.BoundMask)
		}
		op.Vals = make([]rel.Value, max(widths[op.Rel], bits.Len64(op.RowMask)))
		for mask := op.RowMask; mask != 0; {
			i := bits.TrailingZeros64(mask)
			mask &^= 1 << uint(i)
			if op.Vals[i], b, err = decodeValue(b); err != nil {
				return nil, err
			}
		}
		ops = append(ops, op)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing payload bytes", len(b))
	}
	return ops, nil
}
