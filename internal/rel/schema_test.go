package rel

import (
	"testing"
)

func TestSchemaIndexing(t *testing.T) {
	s, err := NewSchema([]string{"weight", "src", "dst", "src"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dedup)", s.Len())
	}
	want := []string{"dst", "src", "weight"}
	for i, c := range want {
		if s.Column(i) != c {
			t.Fatalf("Column(%d) = %q, want %q", i, s.Column(i), c)
		}
		if idx, ok := s.IndexOf(c); !ok || idx != i {
			t.Fatalf("IndexOf(%q) = %d,%v", c, idx, ok)
		}
	}
	if _, ok := s.IndexOf("nope"); ok {
		t.Fatal("IndexOf accepted unknown column")
	}
	if got := s.Indices([]string{"weight", "dst"}); got[0] != 2 || got[1] != 0 {
		t.Fatalf("Indices order not preserved: %v", got)
	}
	if m := s.Mask([]string{"dst", "weight"}); m != 0b101 {
		t.Fatalf("Mask = %b", m)
	}
	if m := s.FullMask(); m != 0b111 {
		t.Fatalf("FullMask = %b", m)
	}
}

func TestSchemaLimits(t *testing.T) {
	cols := make([]string, MaxSchemaColumns+1)
	for i := range cols {
		cols[i] = string(rune('a')) + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	if _, err := NewSchema(cols); err == nil {
		t.Fatal("schema over the column limit accepted")
	}
	if _, err := NewSchema([]string{"a", ""}); err == nil {
		t.Fatal("empty column name accepted")
	}
}

func TestRowTupleRoundTrip(t *testing.T) {
	s := MustSchema([]string{"dst", "src", "weight"})
	tu := T("src", 1, "weight", "heavy")
	row, err := s.RowFromTuple(tu, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row.Mask() != 0b110 {
		t.Fatalf("mask = %b", row.Mask())
	}
	if v, ok := row.Get(s.MustIndex("src")); !ok || v != 1 {
		t.Fatalf("src = %v,%v", v, ok)
	}
	if _, ok := row.Get(s.MustIndex("dst")); ok {
		t.Fatal("dst should be unbound")
	}
	back := s.TupleOfRow(row)
	if !back.Equal(tu) {
		t.Fatalf("round trip %v != %v", back, tu)
	}
	if _, err := s.RowFromTuple(T("other", 1), nil); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestRowHashMatchesKeyHash(t *testing.T) {
	s := MustSchema([]string{"dst", "src", "weight"})
	tu := T("src", 42, "dst", int64(7), "weight", 3.5)
	row, err := s.RowFromTuple(tu, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Stripe selection hashes rows through HashAt; it must agree with the
	// tuple-path Key.Hash for the same column order.
	for _, cols := range [][]string{{"src"}, {"dst", "src"}, {"weight", "dst"}} {
		if got, want := row.HashAt(s.Indices(cols)), tu.Key(cols).Hash(); got != want {
			t.Fatalf("HashAt(%v) = %d, Key.Hash = %d", cols, got, want)
		}
	}
}

func TestRowKeyGather(t *testing.T) {
	s := MustSchema([]string{"dst", "src", "weight"})
	row := s.NewRow()
	row.Set(s.MustIndex("src"), 1)
	row.Set(s.MustIndex("dst"), 2)
	row.Set(s.MustIndex("weight"), 9)
	k := KeyOver(row.AppendKeyAt(s.Indices([]string{"src", "dst"}), nil))
	if k.Len() != 2 || k.At(0) != 1 || k.At(1) != 2 {
		t.Fatalf("AppendKeyAt = %v", k)
	}
	buf := row.AppendKeyAt(s.Indices([]string{"weight"}), nil)
	if len(buf) != 1 || buf[0] != 9 {
		t.Fatalf("AppendKeyAt = %v", buf)
	}
	var cp Row
	cp = s.NewRow()
	cp.CopyFrom(row)
	cp.Set(s.MustIndex("src"), 100)
	if row.At(s.MustIndex("src")) != 1 {
		t.Fatal("CopyFrom aliased the source row")
	}
}
