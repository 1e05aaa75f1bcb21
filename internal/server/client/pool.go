package client

// Buffers for the codec (server.AppendRequest, server.DecodeResponse):
// requests are encoded into pooled scratch space and replies read into
// pooled buffers, so a warm Do allocates only what it hands out.

import (
	"io"
	"sync"
)

// maxPooledBuf caps the buffers the pools keep.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// readAll reads r to its end, appending to buf.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
