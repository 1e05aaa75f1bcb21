package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimesTelescope(t *testing.T) {
	medians := map[string]float64{
		"client.do.window": 1_400_000, "client.do": 150_000, "http.post": 120_000,
		"dispatcher.submit": 40_000, "core.batch": 22_000, "core.rows": 20_000,
		"wal.append": 3_000, "wal.sync": 9_000,
	}
	levels := []levelSpec{
		{name: "client.do.window"}, {name: "client.do"}, {name: "http.post"},
		{name: "dispatcher.submit"}, {name: "core.batch"},
		{name: "core.rows", children: []string{"wal.append", "wal.sync"}},
	}
	rows := selfTimes(levels, func(name string) float64 { return medians[name] })
	want := map[string]float64{
		"client.do.window": 1_250_000, "client.do": 30_000, "http.post": 80_000,
		"dispatcher.submit": 18_000, "core.batch": 2_000, "core.rows": 8_000,
		"wal.append": 3_000, "wal.sync": 9_000,
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	var sum float64
	for _, r := range rows {
		if w, ok := want[r.name]; !ok || r.selfNS != w {
			t.Errorf("self time of %s = %v, want %v", r.name, r.selfNS, w)
		}
		sum += r.selfNS
	}
	if sum != medians["client.do.window"] {
		t.Errorf("rows sum to %v, the top span is %v", sum, medians["client.do.window"])
	}
}

// TestPeelRowsFlagWhatTheReplaysCannotResolve records two levels whose
// difference is 2 µs in the even chunks and -1 µs in the odd ones: the row
// between them is noise, the bottom row is not.
func TestPeelRowsFlagWhatTheReplaysCannotResolve(t *testing.T) {
	tr := newTracer(64)
	at := tr.origin
	add := func(name string, d time.Duration) {
		tr.add(0, 0, name, at, at.Add(d))
		at = at.Add(d)
	}
	const chunk = 4
	for c := 0; c < 8; c++ {
		upper := 102 * time.Microsecond
		if c%2 == 1 {
			upper = 99 * time.Microsecond
		}
		for i := 0; i < chunk; i++ {
			add("upper", upper)
		}
		for i := 0; i < chunk; i++ {
			add("lower", 100*time.Microsecond)
		}
	}
	rows := tr.peelRows([]levelSpec{{name: "upper"}, {name: "lower"}}, chunk)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if up := rows[0]; up.resolved() || up.noiseNS != 3_000 {
		t.Errorf("upper: self %v noise %v resolved %v; want noise 3000 and unresolved", up.selfNS, up.noiseNS, up.resolved())
	}
	if low := rows[1]; !low.resolved() || low.selfNS != 100_000 || low.noiseNS != 0 {
		t.Errorf("lower: self %v noise %v resolved %v; want 100000, 0, resolved", low.selfNS, low.noiseNS, low.resolved())
	}
	// A level below the one under it is never a measurement.
	if (peelRow{selfNS: -2_000}).resolved() {
		t.Error("a negative self time counts as resolved")
	}
}

func TestTracerWritesSpansAsJSONLines(t *testing.T) {
	tr := newTracer(4)
	t0 := tr.origin
	parent := tr.add(0, 7, "core.rows", t0.Add(10*time.Microsecond), t0.Add(50*time.Microsecond))
	tr.add(parent, 7, "wal.append", t0.Add(20*time.Microsecond), t0.Add(25*time.Microsecond))
	if got := tr.median("wal.append", 1, -1); got != 5_000 {
		t.Fatalf("median = %v, want 5000", got)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("%d lines, want 2", len(recs))
	}
	child := recs[1]
	for _, key := range []string{"id", "parent", "req", "name", "start_ns", "end_ns"} {
		if _, ok := child[key]; !ok {
			t.Errorf("span lacks %q: %v", key, child)
		}
	}
	if child["parent"].(float64) != float64(parent) || child["req"].(float64) != 7 || child["name"] != "wal.append" {
		t.Errorf("child span = %v", child)
	}
	if d := child["end_ns"].(float64) - child["start_ns"].(float64); math.Abs(d-5_000) > 0 {
		t.Errorf("child lasts %v ns, want 5000", d)
	}
}

func TestChunkPairsRatioIgnoresOneStall(t *testing.T) {
	var c chunkPairs
	for i := 0; i < 9; i++ {
		c.add(1050*time.Microsecond, 1000*time.Microsecond)
	}
	c.add(30*time.Millisecond, 1000*time.Microsecond) // a stall in one traced chunk
	if got := c.ratio(); math.Abs(got-1.05) > 1e-9 {
		t.Errorf("ratio = %v, want 1.05", got)
	}
}
