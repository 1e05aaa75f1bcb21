package server

// Replies. The HTTP handlers append-encode a committed txnReq straight
// into its pooled reply buffer, byte for byte what json.Encoder writes
// for the equivalent Response (FuzzReply pins that); Dispatcher.Submit
// builds the Response value itself.

import (
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
		switch op.st.key.kind {
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
			idx, keys := op.st.outIdx, op.st.rel.keys
			for r := 0; r < len(op.rows); r += len(idx) {
				if r > 0 {
					b = append(b, ',')
				}
				b = append(b, '{')
				for j, ci := range idx {
					if j > 0 {
						b = append(b, ',')
					}
					b = append(b, keys[ci]...)
					var err error
					if b, err = wirejson.AppendValue(b, op.rows[r+j]); err != nil {
						return b, err
					}
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
		switch op.st.key.kind {
		case kindInsert, kindRemove:
			v := op.pb.Value()
			res.Applied = &v
		case kindCount:
			v := op.pi.Value()
			res.Count = &v
		case kindQuery:
			idx, cols := op.st.outIdx, op.st.rel.schema.Columns()
			res.Rows = make([]map[string]any, 0, len(op.rows)/len(idx))
			for r := 0; r < len(op.rows); r += len(idx) {
				m := make(map[string]any, len(idx))
				for j, ci := range idx {
					m[cols[ci]] = op.rows[r+j]
				}
				res.Rows = append(res.Rows, m)
			}
		}
	}
	return resp
}
