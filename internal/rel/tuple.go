package rel

import (
	"fmt"
	"sort"
	"strings"
)

// Tuple is an immutable mapping from column names to values
// (t = ⟨c1:v1, c2:v2, …⟩ in §2). Columns are stored sorted so that
// structural equality, matching and projection are cheap and
// deterministic. The zero Tuple is the empty tuple ⟨⟩.
type Tuple struct {
	cols []string
	vals []Value
}

// T builds a tuple from alternating column-name / value pairs:
//
//	T("src", 1, "dst", 2, "weight", 42)
//
// It panics on odd argument counts, non-string column names, duplicate
// columns, or unsupported value types; it is intended for literals in
// examples and tests. Use NewTuple for checked construction.
func T(pairs ...any) Tuple {
	t, err := NewTuple(pairs...)
	if err != nil {
		panic(err)
	}
	return t
}

// NewTuple builds a tuple from alternating column/value pairs, reporting
// malformed input as an error.
func NewTuple(pairs ...any) (Tuple, error) {
	if len(pairs)%2 != 0 {
		return Tuple{}, fmt.Errorf("rel: NewTuple needs column/value pairs, got %d arguments", len(pairs))
	}
	n := len(pairs) / 2
	cols := make([]string, 0, n)
	vals := make([]Value, 0, n)
	for i := 0; i < len(pairs); i += 2 {
		c, ok := pairs[i].(string)
		if !ok {
			return Tuple{}, fmt.Errorf("rel: column name must be a string, got %T", pairs[i])
		}
		if !ValidValue(pairs[i+1]) {
			return Tuple{}, fmt.Errorf("rel: unsupported value type %T for column %q", pairs[i+1], c)
		}
		cols = append(cols, c)
		vals = append(vals, pairs[i+1])
	}
	return makeTuple(cols, vals)
}

// makeTuple sorts the column/value pairs by column and rejects duplicates.
// Tuples of width ≤ 2 — the common case in keys — avoid the general
// sorting machinery.
func makeTuple(cols []string, vals []Value) (Tuple, error) {
	switch len(cols) {
	case 0:
		return Tuple{}, nil
	case 1:
		return Tuple{cols: cols, vals: vals}, nil
	case 2:
		switch {
		case cols[0] == cols[1]:
			return Tuple{}, fmt.Errorf("rel: duplicate column %q", cols[0])
		case cols[0] < cols[1]:
			return Tuple{cols: cols, vals: vals}, nil
		default:
			cols[0], cols[1] = cols[1], cols[0]
			vals[0], vals[1] = vals[1], vals[0]
			return Tuple{cols: cols, vals: vals}, nil
		}
	}
	idx := make([]int, len(cols))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return cols[idx[a]] < cols[idx[b]] })
	sc := make([]string, len(cols))
	sv := make([]Value, len(cols))
	for i, j := range idx {
		sc[i] = cols[j]
		sv[i] = vals[j]
	}
	for i := 1; i < len(sc); i++ {
		if sc[i] == sc[i-1] {
			return Tuple{}, fmt.Errorf("rel: duplicate column %q", sc[i])
		}
	}
	return Tuple{cols: sc, vals: sv}, nil
}

// Len returns the number of columns in the tuple.
func (t Tuple) Len() int { return len(t.cols) }

// Dom returns the tuple's columns (dom t), sorted. The slice is shared;
// callers must not mutate it.
func (t Tuple) Dom() []string { return t.cols }

// Get returns the value of column c and whether it is present.
func (t Tuple) Get(c string) (Value, bool) {
	i := sort.SearchStrings(t.cols, c)
	if i < len(t.cols) && t.cols[i] == c {
		return t.vals[i], true
	}
	return nil, false
}

// MustGet returns the value of column c, panicking if absent. For use in
// code paths where presence has already been validated.
func (t Tuple) MustGet(c string) Value {
	v, ok := t.Get(c)
	if !ok {
		panic(fmt.Sprintf("rel: tuple %v has no column %q", t, c))
	}
	return v
}

// Has reports whether column c is present.
func (t Tuple) Has(c string) bool {
	_, ok := t.Get(c)
	return ok
}

// HasAll reports whether every column in cols is present.
func (t Tuple) HasAll(cols []string) bool {
	for _, c := range cols {
		if !t.Has(c) {
			return false
		}
	}
	return true
}

// Project returns π_cols(t): the tuple restricted to the given columns.
// Columns absent from t are skipped.
func (t Tuple) Project(cols []string) Tuple {
	pc := make([]string, 0, len(cols))
	pv := make([]Value, 0, len(cols))
	for _, c := range cols {
		if v, ok := t.Get(c); ok {
			pc = append(pc, c)
			pv = append(pv, v)
		}
	}
	p, err := makeTuple(pc, pv)
	if err != nil {
		panic(err) // unreachable: cols of a valid tuple are unique
	}
	return p
}

// Union returns t ∪ s. The domains may overlap only on columns where the
// values agree; a conflicting overlap is an error.
func (t Tuple) Union(s Tuple) (Tuple, error) {
	cols := make([]string, 0, len(t.cols)+len(s.cols))
	vals := make([]Value, 0, len(t.cols)+len(s.cols))
	cols = append(cols, t.cols...)
	vals = append(vals, t.vals...)
	for i, c := range s.cols {
		if v, ok := t.Get(c); ok {
			if !Equal(v, s.vals[i]) {
				return Tuple{}, fmt.Errorf("rel: union conflict on column %q: %v vs %v", c, v, s.vals[i])
			}
			continue
		}
		cols = append(cols, c)
		vals = append(vals, s.vals[i])
	}
	return makeTuple(cols, vals)
}

// MustUnion is Union panicking on conflict; for internal joins where
// disjointness is known by construction.
func (t Tuple) MustUnion(s Tuple) Tuple {
	u, err := t.Union(s)
	if err != nil {
		panic(err)
	}
	return u
}

// Extends reports t ⊇ s: every column of s is present in t with an equal
// value.
func (t Tuple) Extends(s Tuple) bool {
	for i, c := range s.cols {
		v, ok := t.Get(c)
		if !ok || !Equal(v, s.vals[i]) {
			return false
		}
	}
	return true
}

// Matches reports t ∼ s: the tuples agree on all common columns.
func (t Tuple) Matches(s Tuple) bool {
	for i, c := range s.cols {
		if v, ok := t.Get(c); ok && !Equal(v, s.vals[i]) {
			return false
		}
	}
	return true
}

// Equal reports structural equality: same domain, same values.
func (t Tuple) Equal(s Tuple) bool {
	if len(t.cols) != len(s.cols) {
		return false
	}
	for i := range t.cols {
		if t.cols[i] != s.cols[i] || !Equal(t.vals[i], s.vals[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples first by domain (lexicographically over column
// names) and then by values in column order. It is a total order on
// tuples, used for deterministic iteration in tests and tools.
func (t Tuple) Compare(s Tuple) int {
	n := len(t.cols)
	if len(s.cols) < n {
		n = len(s.cols)
	}
	for i := 0; i < n; i++ {
		if t.cols[i] != s.cols[i] {
			if t.cols[i] < s.cols[i] {
				return -1
			}
			return 1
		}
		if c := Compare(t.vals[i], s.vals[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(t.cols)), int64(len(s.cols)))
}

// Hash returns a hash of the tuple consistent with Equal.
func (t Tuple) Hash() uint64 {
	h := uint64(fnvOffset)
	for i, c := range t.cols {
		h = hashBytes(h, []byte(c))
		h = hashValue(h, t.vals[i])
	}
	return h
}

// Key projects the tuple onto the given ordered column list and returns a
// container key. All columns must be present.
func (t Tuple) Key(cols []string) Key {
	vals := make([]Value, len(cols))
	for i, c := range cols {
		v, ok := t.Get(c)
		if !ok {
			panic(fmt.Sprintf("rel: tuple %v missing key column %q", t, c))
		}
		vals[i] = v
	}
	return Key{vals: vals}
}

// String renders the tuple as ⟨c1: v1, c2: v2⟩ in the paper's notation.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteString("⟨")
	for i, c := range t.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", c, FormatValue(t.vals[i]))
	}
	b.WriteString("⟩")
	return b.String()
}

// Key is a tuple projected onto a fixed, ordered list of columns: the key
// type of every container in internal/container. The column list itself is
// carried by the decomposition edge, not the key, so keys are compact and
// comparisons are positional.
type Key struct {
	vals []Value
}

// NewKey builds a key directly from values, in edge-column order.
func NewKey(vals ...Value) Key {
	vs := make([]Value, len(vals))
	copy(vs, vals)
	return Key{vals: vs}
}

// Len returns the number of key columns.
func (k Key) Len() int { return len(k.vals) }

// At returns the i'th key value.
func (k Key) At(i int) Value { return k.vals[i] }

// Values returns the key's values; callers must not mutate the slice.
func (k Key) Values() []Value { return k.vals }

// Tuple re-attaches column names (in the same order used to build the key)
// and returns the corresponding tuple.
func (k Key) Tuple(cols []string) Tuple {
	if len(cols) != len(k.vals) {
		panic(fmt.Sprintf("rel: key width %d does not match %d columns", len(k.vals), len(cols)))
	}
	t, err := makeTuple(append([]string(nil), cols...), append([]Value(nil), k.vals...))
	if err != nil {
		panic(err)
	}
	return t
}

// CompareKeys orders keys lexicographically by position using the global
// value order; keys of different widths never meet in one container, but
// shorter keys order first for totality.
func CompareKeys(a, b Key) int {
	n := len(a.vals)
	if len(b.vals) < n {
		n = len(b.vals)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a.vals[i], b.vals[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(a.vals)), int64(len(b.vals)))
}

// Hash returns a 64-bit hash of the key consistent with CompareKeys
// equality.
func (k Key) Hash() uint64 {
	h := uint64(fnvOffset)
	for _, v := range k.vals {
		h = hashValue(h, v)
	}
	return h
}

// Equal reports CompareKeys(k, o) == 0.
func (k Key) Equal(o Key) bool { return CompareKeys(k, o) == 0 }

// String renders the key as (v1, v2, …).
func (k Key) String() string {
	var b strings.Builder
	b.WriteString("(")
	for i, v := range k.vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(FormatValue(v))
	}
	b.WriteString(")")
	return b.String()
}
