package structs

import (
	"tbtm"
)

// Trie shape. A leaf holds at most leafMax entries unless it sits at
// maxDepth, where every hash bit is already used to select it and only
// full-hash collisions remain; those leaves grow without bound.
const (
	leafMax  = 16
	fanBits  = 4
	fanout   = 1 << fanBits
	maxDepth = 64 / fanBits
)

// mapEntry is one key/value pair in a leaf's immutable slice, with the
// key's hash kept so lookups and splits never rehash.
type mapEntry[K comparable, V any] struct {
	hash uint64
	key  K
	val  V
}

// mapInner is an inner trie node. Child i holds the entries whose hash
// has i as the next fanBits top bits below the node's depth.
type mapInner struct {
	kids [fanout]tbtm.Object
}

// childIndex returns the child of an inner node at depth that h selects.
func childIndex(h uint64, depth int) int {
	return int(h>>(64-fanBits*(depth+1))) & (fanout - 1)
}

// Map is a transactional hash map: a fixed root table of buckets, each
// the root of a hash trie. Every bucket and trie node is one object
// holding either a leaf, an immutable slice of entries replaced
// copy-on-write, or an inner node of fanout child objects indexed by the
// next fanBits top bits of the hash (the root index is hash % buckets).
// An insert that would grow a leaf past leafMax entries replaces it, in
// the same transaction and by writing only that one object, with an
// inner node over fresh children. So an update copies one small leaf
// whatever the key count, operations on different leaves never conflict,
// and nodes never merge: a delete only shrinks its leaf. A map whose
// buckets never pass leafMax entries keeps a one-level layout. A Range
// reads every node, in bucket order and then trie order, so it is a long
// consistent scan over the whole map.
type Map[K comparable, V any] struct {
	tm      *tbtm.TM
	hash    func(K) uint64
	buckets []tbtm.Object
	size    *tbtm.Var[int]
}

// NewMap creates a map with the given root bucket count (minimum 1) and
// hash function. The count sets only the root width: leaves split below
// it as keys arrive.
func NewMap[K comparable, V any](tm *tbtm.TM, buckets int, hash func(K) uint64) *Map[K, V] {
	if buckets < 1 {
		buckets = 1
	}
	m := &Map[K, V]{tm: tm, hash: hash, size: tbtm.NewVar(tm, 0)}
	m.buckets = make([]tbtm.Object, buckets)
	for i := range m.buckets {
		m.buckets[i] = tm.NewObject([]mapEntry[K, V](nil))
	}
	return m
}

// StringHash is an FNV-1a hash for string keys.
func StringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// IntHash is a Fibonacci hash for integer keys.
func IntHash(k int) uint64 {
	return uint64(k) * 11400714819323198485
}

// leaf walks inside tx from h's root bucket to the leaf h selects and
// returns that leaf's object, its entries and its depth.
func (m *Map[K, V]) leaf(tx tbtm.Tx, h uint64) (tbtm.Object, []mapEntry[K, V], int, error) {
	obj := m.buckets[h%uint64(len(m.buckets))]
	for depth := 0; ; depth++ {
		raw, err := tx.Read(obj)
		if err != nil {
			return obj, nil, depth, err
		}
		if in, ok := raw.(*mapInner); ok {
			obj = in.kids[childIndex(h, depth)]
			continue
		}
		es, _ := raw.([]mapEntry[K, V])
		return obj, es, depth, nil
	}
}

// find returns the index of k in es, or -1.
func find[K comparable, V any](es []mapEntry[K, V], h uint64, k K) int {
	for i := range es {
		if es[i].hash == h && es[i].key == k {
			return i
		}
	}
	return -1
}

// node returns what an object at depth holds for es: es itself, or the
// inner node of a split when es is over leafMax and depth allows it.
func (m *Map[K, V]) node(es []mapEntry[K, V], depth int) any {
	if len(es) <= leafMax || depth == maxDepth {
		return es
	}
	var parts [fanout][]mapEntry[K, V]
	for _, e := range es {
		c := childIndex(e.hash, depth)
		parts[c] = append(parts[c], e)
	}
	in := &mapInner{}
	for c := range in.kids {
		in.kids[c] = m.tm.NewObject(m.node(parts[c], depth+1))
	}
	return in
}

// Get returns the value for k inside tx.
func (m *Map[K, V]) Get(tx tbtm.Tx, k K) (V, bool, error) {
	var zero V
	h := m.hash(k)
	_, es, _, err := m.leaf(tx, h)
	if err != nil {
		return zero, false, err
	}
	if i := find(es, h, k); i >= 0 {
		return es[i].val, true, nil
	}
	return zero, false, nil
}

// Put inserts or updates k inside tx; it reports whether the key was
// newly inserted.
func (m *Map[K, V]) Put(tx tbtm.Tx, k K, v V) (bool, error) {
	h := m.hash(k)
	obj, es, depth, err := m.leaf(tx, h)
	if err != nil {
		return false, err
	}
	if i := find(es, h, k); i >= 0 {
		next := make([]mapEntry[K, V], len(es))
		copy(next, es)
		next[i].val = v
		return false, tx.Write(obj, next)
	}
	next := make([]mapEntry[K, V], len(es)+1)
	copy(next, es)
	next[len(es)] = mapEntry[K, V]{hash: h, key: k, val: v}
	if err := tx.Write(obj, m.node(next, depth)); err != nil {
		return false, err
	}
	n, err := m.size.Read(tx)
	if err != nil {
		return false, err
	}
	return true, m.size.Write(tx, n+1)
}

// Delete removes k inside tx; it reports whether the key was present.
func (m *Map[K, V]) Delete(tx tbtm.Tx, k K) (bool, error) {
	h := m.hash(k)
	obj, es, _, err := m.leaf(tx, h)
	if err != nil {
		return false, err
	}
	i := find(es, h, k)
	if i < 0 {
		return false, nil
	}
	var next []mapEntry[K, V]
	if len(es) > 1 {
		next = make([]mapEntry[K, V], 0, len(es)-1)
		next = append(append(next, es[:i]...), es[i+1:]...)
	}
	if err := tx.Write(obj, next); err != nil {
		return false, err
	}
	n, err := m.size.Read(tx)
	if err != nil {
		return false, err
	}
	return true, m.size.Write(tx, n-1)
}

// Len returns the entry count inside tx.
func (m *Map[K, V]) Len(tx tbtm.Tx) (int, error) {
	return m.size.Read(tx)
}

// Range calls fn for every entry inside tx (bucket order, then trie
// order: children by index, insertion order within a leaf) until fn
// returns false. Reading every node makes a Range a consistent
// whole-map snapshot.
func (m *Map[K, V]) Range(tx tbtm.Tx, fn func(K, V) bool) error {
	for _, b := range m.buckets {
		if more, err := m.rangeNode(tx, b, fn); !more || err != nil {
			return err
		}
	}
	return nil
}

// rangeNode ranges over the subtree at obj; it reports false once fn
// has asked to stop or a read failed.
func (m *Map[K, V]) rangeNode(tx tbtm.Tx, obj tbtm.Object, fn func(K, V) bool) (bool, error) {
	raw, err := tx.Read(obj)
	if err != nil {
		return false, err
	}
	if in, ok := raw.(*mapInner); ok {
		for _, kid := range in.kids {
			if more, err := m.rangeNode(tx, kid, fn); !more || err != nil {
				return false, err
			}
		}
		return true, nil
	}
	es, _ := raw.([]mapEntry[K, V])
	for i := range es {
		if !fn(es[i].key, es[i].val) {
			return false, nil
		}
	}
	return true, nil
}

// GetAtomic runs Get in its own short read-only transaction.
func (m *Map[K, V]) GetAtomic(th *tbtm.Thread, k K) (val V, ok bool, err error) {
	err = th.AtomicReadOnly(tbtm.Short, func(tx tbtm.Tx) error {
		var e error
		val, ok, e = m.Get(tx, k)
		return e
	})
	return
}

// PutAtomic runs Put in its own short transaction.
func (m *Map[K, V]) PutAtomic(th *tbtm.Thread, k K, v V) (inserted bool, err error) {
	err = th.Atomic(tbtm.Short, func(tx tbtm.Tx) error {
		var e error
		inserted, e = m.Put(tx, k, v)
		return e
	})
	return
}

// DeleteAtomic runs Delete in its own short transaction.
func (m *Map[K, V]) DeleteAtomic(th *tbtm.Thread, k K) (deleted bool, err error) {
	err = th.Atomic(tbtm.Short, func(tx tbtm.Tx) error {
		var e error
		deleted, e = m.Delete(tx, k)
		return e
	})
	return
}

// SnapshotAtomic collects the whole map in one long read-only
// transaction.
func (m *Map[K, V]) SnapshotAtomic(th *tbtm.Thread) (map[K]V, error) {
	var snap map[K]V
	err := th.AtomicReadOnly(tbtm.Long, func(tx tbtm.Tx) error {
		snap = make(map[K]V)
		return m.Range(tx, func(k K, v V) bool {
			snap[k] = v
			return true
		})
	})
	return snap, err
}
