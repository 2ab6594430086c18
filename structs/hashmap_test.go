package structs

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tbtm"
)

// trieShape is what checkTrie saw: inner nodes per depth, the deepest
// leaf and the largest leaf at maxDepth.
type trieShape struct {
	inner      map[int]int
	deepest    int
	maxBottom  int
	entryCount int
}

// checkTrie walks m's trie in one read-only transaction. It fails t
// when an entry's stored hash is not its key's hash, when an entry sits
// on a path its hash does not select, or when a leaf above maxDepth
// holds more than leafMax entries.
func checkTrie[K comparable, V any](t *testing.T, tm *tbtm.TM, m *Map[K, V]) trieShape {
	t.Helper()
	var shape trieShape
	var walk func(tx tbtm.Tx, obj tbtm.Object, bucket int, path []int) error
	walk = func(tx tbtm.Tx, obj tbtm.Object, bucket int, path []int) error {
		raw, err := tx.Read(obj)
		if err != nil {
			return err
		}
		depth := len(path)
		if in, ok := raw.(*mapInner); ok {
			shape.inner[depth]++
			for c, kid := range in.kids {
				if err := walk(tx, kid, bucket, append(path, c)); err != nil {
					return err
				}
			}
			return nil
		}
		es := raw.([]mapEntry[K, V])
		if depth > shape.deepest {
			shape.deepest = depth
		}
		if depth < maxDepth && len(es) > leafMax {
			t.Errorf("leaf at depth %d holds %d entries, want <= %d", depth, len(es), leafMax)
		}
		if depth == maxDepth && len(es) > shape.maxBottom {
			shape.maxBottom = len(es)
		}
		for _, e := range es {
			shape.entryCount++
			if e.hash != m.hash(e.key) {
				t.Errorf("key %v: stored hash %#x, want %#x", e.key, e.hash, m.hash(e.key))
			}
			if int(e.hash%uint64(len(m.buckets))) != bucket {
				t.Errorf("key %v in bucket %d, hash selects %d", e.key, bucket, e.hash%uint64(len(m.buckets)))
			}
			for d, c := range path {
				if childIndex(e.hash, d) != c {
					t.Errorf("key %v under child %d at depth %d, hash selects %d", e.key, c, d, childIndex(e.hash, d))
				}
			}
		}
		return nil
	}
	err := tm.NewThread().AtomicReadOnly(tbtm.Long, func(tx tbtm.Tx) error {
		shape = trieShape{inner: map[int]int{}}
		for b, obj := range m.buckets {
			if err := walk(tx, obj, b, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return shape
}

// checkAgainstModel compares Len and a full Range of m with model.
func checkAgainstModel(t *testing.T, th *tbtm.Thread, m *Map[int, int], model map[int]int) {
	t.Helper()
	var n int
	got := make(map[int]int)
	err := th.AtomicReadOnly(tbtm.Long, func(tx tbtm.Tx) error {
		clear(got)
		var err error
		if n, err = m.Len(tx); err != nil {
			return err
		}
		return m.Range(tx, func(k, v int) bool {
			if _, dup := got[k]; dup {
				t.Errorf("Range visited key %d twice", k)
			}
			got[k] = v
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(model) || len(got) != len(model) {
		t.Fatalf("Len = %d, Range saw %d, model holds %d", n, len(got), len(model))
	}
	for k, v := range model {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("key %d: Range saw %d,%v; model %d", k, g, ok, v)
		}
	}
}

func TestMapTrieMatchesModel(t *testing.T) {
	// One root bucket and thousands of keys: the bucket must split into
	// a trie several levels deep and still behave like a Go map.
	tm := tbtm.MustNew(tbtm.WithConsistency(tbtm.ZLinearizable))
	m := NewMap[int, int](tm, 1, IntHash)
	th := tm.NewThread()
	model := make(map[int]int)
	rng := rand.New(rand.NewSource(29))

	for op := 0; op < 24000; op++ {
		k := rng.Intn(8000)
		switch r := rng.Intn(20); {
		case r < 12:
			v := rng.Int()
			_, existed := model[k]
			ins, err := m.PutAtomic(th, k, v)
			if err != nil {
				t.Fatal(err)
			}
			if ins == existed {
				t.Fatalf("op %d: Put(%d) inserted=%v, model existed=%v", op, k, ins, existed)
			}
			model[k] = v
		case r < 15:
			_, existed := model[k]
			del, err := m.DeleteAtomic(th, k)
			if err != nil {
				t.Fatal(err)
			}
			if del != existed {
				t.Fatalf("op %d: Delete(%d) = %v, model %v", op, k, del, existed)
			}
			delete(model, k)
		default:
			want, existed := model[k]
			got, ok, err := m.GetAtomic(th, k)
			if err != nil {
				t.Fatal(err)
			}
			if ok != existed || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = %d,%v; model %d,%v", op, k, got, ok, want, existed)
			}
		}
		if op%4000 == 3999 {
			checkAgainstModel(t, th, m, model)
		}
	}
	if len(model) < 5000 {
		t.Fatalf("model holds %d keys, want >= 5000 to force deep splits", len(model))
	}
	checkAgainstModel(t, th, m, model)
	shape := checkTrie(t, tm, m)
	for d := 0; d <= 2; d++ {
		if shape.inner[d] == 0 {
			t.Errorf("no inner node at depth %d (shape %v)", d, shape.inner)
		}
	}
	if shape.entryCount != len(model) {
		t.Errorf("trie holds %d entries, model %d", shape.entryCount, len(model))
	}
}

func TestMapTrieCollidingHashes(t *testing.T) {
	// Hashes that share their top bits push splits down a single path;
	// hashes that collide outright end in one leaf at maxDepth that
	// grows past leafMax. Both must stay a correct map.
	for _, tc := range []struct {
		name string
		keys int
		hash func(int) uint64
		// minDeepest is the least depth the deepest leaf must reach.
		minDeepest int
	}{
		// 32 shared top bits: eight levels of one-child splits.
		{"constant-top-32-bits", 3000, func(k int) uint64 { return 0xdeadbeef<<32 | IntHash(k)>>32 }, 9},
		// Only the low 6 bits vary: ~47 keys share each full hash, so
		// splits run down to maxDepth and its leaves overflow.
		{"low-6-bits", 3000, func(k int) uint64 { return uint64(k % 64) }, maxDepth},
		{"constant", 200, func(int) uint64 { return 42 }, maxDepth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tm := tbtm.MustNew(tbtm.WithConsistency(tbtm.ZLinearizable))
			m := NewMap[int, int](tm, 2, tc.hash)
			th := tm.NewThread()
			model := make(map[int]int)
			for k := 0; k < tc.keys; k++ {
				if _, err := m.PutAtomic(th, k, k); err != nil {
					t.Fatal(err)
				}
				model[k] = k
			}
			// Overwrite, delete and read back a spread of keys.
			for k := 0; k < tc.keys; k += 3 {
				if _, err := m.PutAtomic(th, k, -k); err != nil {
					t.Fatal(err)
				}
				model[k] = -k
			}
			for k := 1; k < tc.keys; k += 5 {
				if del, err := m.DeleteAtomic(th, k); err != nil || !del {
					t.Fatalf("Delete(%d) = %v, %v", k, del, err)
				}
				delete(model, k)
			}
			for k := 0; k < tc.keys; k++ {
				want, existed := model[k]
				got, ok, err := m.GetAtomic(th, k)
				if err != nil {
					t.Fatal(err)
				}
				if ok != existed || got != want {
					t.Fatalf("Get(%d) = %d,%v; model %d,%v", k, got, ok, want, existed)
				}
			}
			checkAgainstModel(t, th, m, model)
			shape := checkTrie(t, tm, m)
			if shape.deepest < tc.minDeepest {
				t.Errorf("deepest leaf at depth %d, want >= %d", shape.deepest, tc.minDeepest)
			}
			if tc.minDeepest == maxDepth && shape.maxBottom <= leafMax {
				t.Errorf("largest leaf at maxDepth holds %d entries, want > %d", shape.maxBottom, leafMax)
			}
		})
	}
}

func TestMapTrieConcurrentSplitSnapshots(t *testing.T) {
	// One writer inserts key pairs (k, k+offset) in one transaction, so
	// leaves keep splitting; another keeps overwriting existing pairs
	// with matching values. Every long Range snapshot must count exactly
	// Len entries and see each pair whole and equal. Inserter and
	// snapshots go in lockstep, step pairs apart, so every snapshot
	// overlaps inserts into a growing map.
	const offset = 1 << 20
	pairs, snapshots := 800, 200
	if testing.Short() {
		pairs, snapshots = 300, 75
	}
	step := pairs / snapshots
	tm := tbtm.MustNew(tbtm.WithConsistency(tbtm.ZLinearizable))
	m := NewMap[int, int](tm, 2, IntHash)
	var inserted, taken atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	insertDone := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(insertDone)
		th := tm.NewThread()
		for k := 0; k < pairs && !stop.Load(); k++ {
			for int64(k) >= (taken.Load()+1)*int64(step) && !stop.Load() {
				runtime.Gosched()
			}
			if err := th.Atomic(tbtm.Short, func(tx tbtm.Tx) error {
				if _, err := m.Put(tx, k, 0); err != nil {
					return err
				}
				_, err := m.Put(tx, k+offset, 0)
				return err
			}); err != nil {
				t.Errorf("insert pair %d: %v", k, err)
				stop.Store(true)
				return
			}
			inserted.Store(int64(k + 1))
		}
	}()
	go func() {
		defer wg.Done()
		th := tm.NewThread()
		rng := rand.New(rand.NewSource(31))
		for i := 1; !stop.Load(); i++ {
			n := inserted.Load()
			if n == 0 {
				runtime.Gosched()
				continue
			}
			k := rng.Intn(int(n))
			if err := th.Atomic(tbtm.Short, func(tx tbtm.Tx) error {
				if _, err := m.Put(tx, k, i); err != nil {
					return err
				}
				_, err := m.Put(tx, k+offset, i)
				return err
			}); err != nil {
				t.Errorf("overwrite pair %d: %v", k, err)
				stop.Store(true)
				return
			}
		}
	}()

	th := tm.NewThread()
	seen := make(map[int]int)
	for snap := 0; snap < snapshots && !stop.Load(); snap++ {
		for inserted.Load() < int64(snap*step) && !stop.Load() {
			runtime.Gosched()
		}
		var n int
		if err := th.AtomicReadOnly(tbtm.Long, func(tx tbtm.Tx) error {
			clear(seen)
			var err error
			if n, err = m.Len(tx); err != nil {
				return err
			}
			return m.Range(tx, func(k, v int) bool {
				seen[k] = v
				return true
			})
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != n {
			t.Fatalf("snapshot %d: Len = %d, ranged %d entries", snap, n, len(seen))
		}
		for k, v := range seen {
			partner := k + offset
			if k >= offset {
				partner = k - offset
			}
			if pv, ok := seen[partner]; !ok || pv != v {
				t.Fatalf("snapshot %d: key %d = %d, partner %d = %d,%v", snap, k, v, partner, pv, ok)
			}
		}
		taken.Add(1)
	}
	<-insertDone
	stop.Store(true)
	wg.Wait()
	if shape := checkTrie(t, tm, m); shape.inner[1] == 0 {
		t.Errorf("no split below the root under concurrent inserts (shape %v)", shape.inner)
	}
}
