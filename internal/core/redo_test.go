package core

import (
	"strings"
	"testing"

	"repro/internal/rel"
)

// TestRedoShapeAtSchemaWidth pins the redo rule's row: an op whose Vals
// span the schema becomes its row without a copy, and one whose Vals do
// not (a record from disk can carry anything) is an error.
func TestRedoShapeAtSchemaWidth(t *testing.T) {
	_, _, posts := testRegistry(t)
	rm := &RedoOp{Rel: "posts", Vals: []rel.Value{int64(4), int64(9), nil}, RowMask: 3, BoundMask: 3}
	sh, row, err := posts.redoShape(rm)
	if err != nil {
		t.Fatal(err)
	}
	if sh.kind != mRemove || sh.bound != 3 || row.Mask() != 3 || row.At(1) != int64(9) {
		t.Fatalf("shape %+v row mask %#x", sh, row.Mask())
	}
	if !raceEnabled {
		if avg := testing.AllocsPerRun(100, func() { posts.redoShape(rm) }); avg != 0 {
			t.Fatalf("redoShape allocates %.0f per op, want 0", avg)
		}
	}
	short := &RedoOp{Rel: "posts", Vals: []rel.Value{int64(4), int64(9)}, RowMask: 3, BoundMask: 3}
	if _, _, err := posts.redoShape(short); err == nil || !strings.Contains(err.Error(), "2 values, want 3") {
		t.Fatalf("short Vals: err = %v", err)
	}
}
