package container

import (
	"fmt"

	"repro/internal/rel"
)

// keySlot is the storage a container entry keeps its key in. Containers
// own their keys: Write copies the caller's key into the slot of the entry
// it creates, so a caller may pass a key over transient storage and reuse
// that storage once Write returns. The slot type is a type parameter of
// every container kind, fixed by Constructor from the key width — one
// implementation per kind, two entry layouts:
//
//   - oneKey stores a one-column key inline, as one rel.Value;
//   - wideKey stores one owned copy of a key of any other width.
//
// A slot is set once, before its entry is published, and never changes
// afterwards, so a key view that Scan yielded stays valid for as long as
// the caller holds it.
type keySlot[S any] interface {
	*S
	// set stores an owned copy of k.
	set(k rel.Key)
	// key returns the stored key as a view over the slot.
	key() rel.Key
	// compare orders the stored key against k as rel.CompareKeys does.
	compare(k rel.Key) int
	// word returns the order word of k among keys stored in slots of this
	// layout: the rel.OrderWord of k's first column, exact only when no
	// other stored key can share it. It does not read its receiver, so it
	// may be called on a nil slot.
	word(k rel.Key) (w uint64, exact bool)
}

// oneKey is the inline slot of a one-column key.
type oneKey struct{ v [1]rel.Value }

func (s *oneKey) set(k rel.Key) {
	if k.Len() != 1 {
		panic(fmt.Sprintf("container: key %v stored in a one-column container", k))
	}
	s.v[0] = k.At(0)
}

func (s *oneKey) key() rel.Key { return rel.KeyOver(s.v[:]) }

func (s *oneKey) compare(k rel.Key) int {
	if k.Len() == 1 {
		return rel.Compare(s.v[0], k.At(0))
	}
	return rel.CompareKeys(s.key(), k)
}

func (*oneKey) word(k rel.Key) (uint64, bool) {
	w, exact := firstWord(k)
	return w, exact && k.Len() == 1
}

// firstWord is the order word of k's first column, or the lowest word
// for the empty key, which orders before every other.
func firstWord(k rel.Key) (uint64, bool) {
	if k.Len() == 0 {
		return 0, false
	}
	return rel.OrderWord(k.At(0))
}

// wideKey is the slot of a key of any width other than one: one owned copy.
type wideKey struct{ k rel.Key }

func (s *wideKey) set(k rel.Key) { s.k = rel.NewKey(k.Values()...) }

func (s *wideKey) key() rel.Key { return s.k }

func (s *wideKey) compare(k rel.Key) int { return rel.CompareKeys(s.k, k) }

// word is never exact: keys that share a first column differ in the rest.
func (*wideKey) word(k rel.Key) (uint64, bool) {
	w, _ := firstWord(k)
	return w, false
}
