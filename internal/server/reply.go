package server

// Replies. The HTTP handlers append-encode a committed txnReq straight
// into its pooled reply buffer, byte for byte what json.Encoder writes
// for the equivalent Response (FuzzReply pins that); Dispatcher.Submit
// builds the Response value itself.

import (
	"math/bits"
	"strconv"

	"repro/internal/server/wirejson"
)

// appendReply appends tr's committed Response document, with
// json.Encoder's trailing newline. It fails only on a value JSON cannot
// carry (a NaN or infinite float64 stored through the library API), as
// json.Encoder would.
func (tr *txnReq) appendReply(b []byte) ([]byte, error) {
	b = append(b, `{"results":[`...)
	for i := range tr.ops {
		if i > 0 {
			b = append(b, ',')
		}
		op := &tr.ops[i]
		switch op.kind {
		case kindInsert, kindRemove:
			if op.pb.Value() {
				b = append(b, `{"applied":true}`...)
			} else {
				b = append(b, `{"applied":false}`...)
			}
		case kindCount:
			b = append(b, `{"count":`...)
			b = strconv.AppendInt(b, int64(op.pi.Value()), 10)
			b = append(b, '}')
		case kindQuery:
			if len(op.rows) == 0 {
				b = append(b, `{}`...)
				continue
			}
			b = append(b, `{"rows":[`...)
			keys := op.ri.keys
			for r := 0; r < len(op.rows); {
				if r > 0 {
					b = append(b, ',')
				}
				b = append(b, '{')
				for m := op.out; m != 0; m &= m - 1 {
					if m != op.out {
						b = append(b, ',')
					}
					b = append(b, keys[bits.TrailingZeros64(m)]...)
					var err error
					if b, err = wirejson.AppendValue(b, op.rows[r]); err != nil {
						return b, err
					}
					r++
				}
				b = append(b, '}')
			}
			b = append(b, "]}"...)
		}
	}
	b = append(b, `],"batch_seq":`...)
	b = strconv.AppendUint(b, tr.seq, 10)
	b = append(b, `,"batch_size":`...)
	b = strconv.AppendInt(b, int64(tr.size), 10)
	b = append(b, `,"batch_pos":`...)
	b = strconv.AppendInt(b, int64(tr.pos), 10)
	return append(b, "}\n"...), nil
}

// response builds tr's committed Response value.
func (tr *txnReq) response() *Response {
	resp := &Response{
		Results:   make([]OpResult, len(tr.ops)),
		BatchSeq:  tr.seq,
		BatchSize: tr.size,
		BatchPos:  tr.pos,
	}
	for i := range tr.ops {
		op, res := &tr.ops[i], &resp.Results[i]
		switch op.kind {
		case kindInsert, kindRemove:
			v := op.pb.Value()
			res.Applied = &v
		case kindCount:
			v := op.pi.Value()
			res.Count = &v
		case kindQuery:
			cols, n := op.ri.schema.Columns(), bits.OnesCount64(op.out)
			res.Rows = make([]map[string]any, 0, len(op.rows)/n)
			for r := 0; r < len(op.rows); {
				m := make(map[string]any, n)
				for o := op.out; o != 0; o &= o - 1 {
					m[cols[bits.TrailingZeros64(o)]] = op.rows[r]
					r++
				}
				res.Rows = append(res.Rows, m)
			}
		}
	}
	return resp
}
