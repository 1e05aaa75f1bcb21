package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one (0 for an entry point replayed
// from the top). All spans of a run live in one preallocated slice and
// are written out when the run ends.
type span struct {
	ID, Parent uint32
	Req        uint32
	Name       string
	Start, End int64 // ns since the tracer's origin
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer is the in-memory span store of the traced pass. It has one
// writer: the traced pass is single-caller by design.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// add records a span and returns its id. Past the preallocated capacity
// the slice grows like any other; the peel sizes it so that does not
// happen inside a timed replay.
func (t *tracer) add(parent, req uint32, name string, start, end time.Time) uint32 {
	id := uint32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
	return id
}

// median returns the median duration of the spans called name. The
// spans of one name are cut, in record order, into chunks of chunk spans;
// half selects the even chunks (0), the odd ones (1) or all (-1).
func (t *tracer) median(name string, chunk, half int) float64 {
	var ds []int64
	k := 0
	for i := range t.spans {
		if t.spans[i].Name != name {
			continue
		}
		if half < 0 || (k/chunk)%2 == half {
			ds = append(ds, t.spans[i].dur())
		}
		k++
	}
	return medianInt64(ds)
}

// writeJSONL writes one JSON object per span:
// {"id":..,"parent":..,"req":..,"name":..,"start_ns":..,"end_ns":..}.
func (t *tracer) writeJSONL(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			ID     uint32 `json:"id"`
			Parent uint32 `json:"parent"`
			Req    uint32 `json:"req"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.ID, s.Parent, s.Req, s.Name, s.Start, s.End}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return w.Flush()
}

// levelSpec names one public entry point of the peel, top first, and
// the spans nested INSIDE it at the same replay (real children, such as
// wal.append inside core.rows).
type levelSpec struct {
	name     string
	children []string
}

// peelRow is one layer's self time.
type peelRow struct {
	name   string
	selfNS float64
	// noiseNS is how far the self time taken from the even chunks of the
	// replays alone lies from the one taken from the odd chunks alone. The
	// replays interleave chunk by chunk, so the two halves saw the same
	// minutes of the machine; what separates them is what separates any two
	// replays of the same requests.
	noiseNS float64
}

// resolved says whether the row is a measurement: a self time inside
// the noise of the replays, or below zero — a level whose median is not
// above the level under it — is not.
func (r peelRow) resolved() bool { return r.selfNS > r.noiseNS }

// selfTimes turns the medians of a peel's levels into per-layer self
// times in nanoseconds. A level's self time is its median minus the
// median one entry point down (the part of the interval the next layer
// covers), and for the bottom level minus its nested children, which
// report their own medians. The rows therefore sum to the top level's
// median by construction.
func selfTimes(levels []levelSpec, median func(name string) float64) []peelRow {
	var rows []peelRow
	for i, l := range levels {
		self := median(l.name)
		if i+1 < len(levels) {
			self -= median(levels[i+1].name)
		}
		for _, c := range l.children {
			m := median(c)
			self -= m
			rows = append(rows, peelRow{name: c, selfNS: m})
		}
		rows = append(rows, peelRow{name: l.name, selfNS: self})
	}
	return rows
}

// peelRows computes the self times over all spans and their noise from
// the two halves of the chunks.
func (t *tracer) peelRows(levels []levelSpec, chunk int) []peelRow {
	half := func(h int) []peelRow {
		return selfTimes(levels, func(name string) float64 { return t.median(name, chunk, h) })
	}
	rows, even, odd := half(-1), half(0), half(1)
	for i := range rows {
		rows[i].noiseNS = math.Abs(even[i].selfNS - odd[i].selfNS)
	}
	return rows
}
