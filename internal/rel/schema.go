package rel

import (
	"fmt"
	"math/bits"
	"sort"
)

// MaxSchemaColumns bounds the width of a Schema: a Row tracks its bound
// columns in a single machine word, which caps relations at 64 columns.
// Specifications in the paper (and every workload here) have a handful.
const MaxSchemaColumns = 64

// Schema assigns every column of a relational specification a dense
// integer index, fixed at synthesis time. It is the bridge between the
// name-oriented relational surface (Tuple, Spec) and the index-oriented
// execution pipeline (Row): the planner resolves column names against the
// schema once per compiled plan, and the executor then runs on integer
// offsets with no string comparisons.
//
// Slot-ordering invariant: indices follow the SORTED order of the column
// names (index 0 is the lexicographically smallest column). Everything
// compiled against a schema relies on this: Tuple↔Row conversion is a
// single linear merge (both sides sorted), instance keys gathered through
// per-node index lists are in sorted column order (the order lock IDs and
// container keys assume), and a row's bound-column set round-trips
// through TupleOfRow without re-sorting. Indices are dense and stable for
// the life of the Schema; two Schemas over the same column set assign
// identical indices.
type Schema struct {
	cols []string // sorted ascending, unique
}

// NewSchema builds a schema over the given columns (deduplicated and
// sorted). It fails beyond MaxSchemaColumns columns or on empty names.
func NewSchema(cols []string) (*Schema, error) {
	sorted := append([]string(nil), cols...)
	sort.Strings(sorted)
	out := sorted[:0]
	for i, c := range sorted {
		if c == "" {
			return nil, fmt.Errorf("rel: schema column name must be non-empty")
		}
		if i > 0 && c == sorted[i-1] {
			continue
		}
		out = append(out, c)
	}
	if len(out) > MaxSchemaColumns {
		return nil, fmt.Errorf("rel: schema has %d columns, max %d", len(out), MaxSchemaColumns)
	}
	return &Schema{cols: out}, nil
}

// MustSchema is NewSchema panicking on error, for schemas derived from
// already-validated specifications.
func MustSchema(cols []string) *Schema {
	s, err := NewSchema(cols)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns (the width of every Row).
func (s *Schema) Len() int { return len(s.cols) }

// Columns returns the schema's columns in index order (sorted). The slice
// is shared; callers must not mutate it.
func (s *Schema) Columns() []string { return s.cols }

// Column returns the name of column i.
func (s *Schema) Column(i int) string { return s.cols[i] }

// IndexOf returns the dense index of column c and whether it exists.
func (s *Schema) IndexOf(c string) (int, bool) {
	i := sort.SearchStrings(s.cols, c)
	if i < len(s.cols) && s.cols[i] == c {
		return i, true
	}
	return -1, false
}

// MustIndex is IndexOf panicking on unknown columns; for plan compilation
// over validated specs.
func (s *Schema) MustIndex(c string) int {
	i, ok := s.IndexOf(c)
	if !ok {
		panic(fmt.Sprintf("rel: schema %v has no column %q", s.cols, c))
	}
	return i
}

// Indices resolves a column list to dense indices, preserving order.
func (s *Schema) Indices(cols []string) []int {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = s.MustIndex(c)
	}
	return idx
}

// Mask returns the bound-column bitmask covering cols.
func (s *Schema) Mask(cols []string) uint64 {
	var m uint64
	for _, c := range cols {
		m |= 1 << uint(s.MustIndex(c))
	}
	return m
}

// FullMask returns the mask with every schema column bound.
func (s *Schema) FullMask() uint64 {
	if len(s.cols) == 64 {
		return ^uint64(0)
	}
	return (1 << uint(len(s.cols))) - 1
}

// NewRow allocates an empty row of the schema's width.
func (s *Schema) NewRow() Row {
	return Row{vals: make([]Value, len(s.cols))}
}

// RowFromTuple converts a tuple into a dense row. When buf has the
// schema's width it is used as the row's backing storage (no allocation);
// otherwise a fresh slice is allocated. Unknown columns are an error.
// Both the tuple's domain and the schema's columns are sorted, so the
// conversion is a single linear merge.
func (s *Schema) RowFromTuple(t Tuple, buf []Value) (Row, error) {
	vals := buf
	if len(vals) != len(s.cols) {
		vals = make([]Value, len(s.cols))
	}
	var mask uint64
	j := 0
	for i, c := range t.cols {
		for j < len(s.cols) && s.cols[j] < c {
			j++
		}
		if j >= len(s.cols) || s.cols[j] != c {
			return Row{}, fmt.Errorf("rel: tuple column %q not in schema %v", c, s.cols)
		}
		vals[j] = t.vals[i]
		mask |= 1 << uint(j)
	}
	return Row{vals: vals, mask: mask}, nil
}

// TupleOfRow converts the row's bound columns back into a Tuple. The
// schema's column order is the sorted order, so no re-sorting is needed.
func (s *Schema) TupleOfRow(r Row) Tuple {
	n := bits.OnesCount64(r.mask)
	cols := make([]string, 0, n)
	vals := make([]Value, 0, n)
	for i := range s.cols {
		if r.mask&(1<<uint(i)) != 0 {
			cols = append(cols, s.cols[i])
			vals = append(vals, r.vals[i])
		}
	}
	return Tuple{cols: cols, vals: vals}
}

// Row is a dense relational tuple: one value slot per schema column, plus
// a bitmask of the columns currently bound. Rows are the execution-time
// representation of query states and operation inputs — every column
// access is an integer index, every "does this bind c?" test a bit test.
// The zero Row is invalid; obtain rows from a Schema or RowOver.
//
// Bound-mask semantics: bit i of the mask means "slot i holds the value
// of schema column i". Slots whose bit is clear are STALE, not zero —
// recycled rows keep old values, and ClearMask/SetMask deliberately avoid
// touching storage. Consequently: At(i) is only meaningful when bit i is
// set (use Get for a checked read); Set(i, v) stores and sets the bit;
// SetMask may only NARROW a mask to a subset of truly-bound columns (the
// mutation pipeline narrows a fully bound operation row to its key
// columns this way) — widening it would expose stale slots as if bound.
// Aggregations over subsets (HashAt, AppendKeyAt, AppendOrderedAt) trust
// the caller that every index is bound.
type Row struct {
	vals []Value
	mask uint64
}

// RowOver wraps an existing value slice (one slot per schema column) and
// bound mask without copying. The caller retains ownership of vals and
// must not mutate slots named by mask while the row is in use.
func RowOver(vals []Value, mask uint64) Row { return Row{vals: vals, mask: mask} }

// Width returns the number of value slots.
func (r Row) Width() int { return len(r.vals) }

// Mask returns the bound-column bitmask.
func (r Row) Mask() uint64 { return r.mask }

// Has reports whether column i is bound.
func (r Row) Has(i int) bool { return r.mask&(1<<uint(i)) != 0 }

// BindsAll reports whether every column of mask is bound.
func (r Row) BindsAll(mask uint64) bool { return r.mask&mask == mask }

// At returns the value of column i. The column must be bound; reading an
// unbound slot returns stale or zero data.
func (r Row) At(i int) Value { return r.vals[i] }

// Get returns the value of column i and whether it is bound.
func (r Row) Get(i int) (Value, bool) {
	if !r.Has(i) {
		return nil, false
	}
	return r.vals[i], true
}

// Set binds column i to v.
func (r *Row) Set(i int, v Value) {
	r.vals[i] = v
	r.mask |= 1 << uint(i)
}

// ClearMask unbinds every column (values become stale but unreachable).
func (r *Row) ClearMask() { r.mask = 0 }

// CopyFrom overwrites this row with src's values and mask. Both rows must
// have the same width.
func (r *Row) CopyFrom(src Row) {
	copy(r.vals, src.vals)
	r.mask = src.mask
}

// SetMask overrides the bound mask (used to narrow a fully bound row to
// its key columns without touching values).
func (r *Row) SetMask(m uint64) { r.mask = m }

// HashAt hashes the values at the given indices, in order, with the same
// algorithm as Key.Hash — so stripe selection over rows agrees with
// stripe selection over tuples.
func (r Row) HashAt(idx []int) uint64 {
	h := uint64(fnvOffset)
	for _, i := range idx {
		h = hashValue(h, r.vals[i])
	}
	return h
}

// AppendKeyAt gathers the values at idx into buf (growing it as needed)
// and returns the filled buffer. Wrap the result with KeyOver for a
// container key.
func (r Row) AppendKeyAt(idx []int, buf []Value) []Value {
	for _, i := range idx {
		buf = append(buf, r.vals[i])
	}
	return buf
}

// KeyOver wraps a value slice as a container key without copying. The
// caller must not mutate vals while the key is in use. Containers copy
// the keys they store (container.Map.Write), so a key over scratch storage
// may be written into one and the storage reused once the write returns.
func KeyOver(vals []Value) Key { return Key{vals: vals} }

// TupleFromSorted builds a tuple directly from a column list that is
// already sorted ascending and duplicate-free, taking ownership of both
// slices. It is the allocation-lean constructor behind row→tuple
// projection; callers must guarantee the precondition.
func TupleFromSorted(cols []string, vals []Value) Tuple {
	return Tuple{cols: cols, vals: vals}
}
