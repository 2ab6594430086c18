package structs

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"tbtm"
)

func intLess(a, b int) bool { return a < b }

func newTM(t *testing.T, level tbtm.Consistency) *tbtm.TM {
	t.Helper()
	return tbtm.MustNew(tbtm.WithConsistency(level))
}

// --- List ---

func TestListBasics(t *testing.T) {
	tm := newTM(t, tbtm.ZLinearizable)
	l := NewList(tm, intLess)
	th := tm.NewThread()

	for _, k := range []int{5, 1, 3, 2, 4} {
		ins, err := l.InsertAtomic(th, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ins {
			t.Fatalf("Insert(%d) = false on fresh key", k)
		}
	}
	// Duplicate insert.
	ins, err := l.InsertAtomic(th, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ins {
		t.Fatal("duplicate insert reported true")
	}
	keys, err := l.KeysAtomic(th)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(keys) || len(keys) != 5 {
		t.Fatalf("Keys = %v", keys)
	}
	found, err := l.ContainsAtomic(th, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("Contains(4) = false")
	}
	found, err = l.ContainsAtomic(th, 42)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("Contains(42) = true")
	}
	rem, err := l.RemoveAtomic(th, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rem {
		t.Fatal("Remove(3) = false")
	}
	rem, err = l.RemoveAtomic(th, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rem {
		t.Fatal("second Remove(3) = true")
	}
	keys, err = l.KeysAtomic(th)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 5}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
}

func TestListLenTracksSize(t *testing.T) {
	tm := newTM(t, tbtm.Linearizable)
	l := NewList(tm, intLess)
	th := tm.NewThread()
	for i := 0; i < 10; i++ {
		if _, err := l.InsertAtomic(th, i); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	if err := th.AtomicReadOnly(tbtm.Short, func(tx tbtm.Tx) error {
		var err error
		n, err = l.Len(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("Len = %d", n)
	}
}

func TestListBoundaryInsertions(t *testing.T) {
	tm := newTM(t, tbtm.ZLinearizable)
	l := NewList(tm, intLess)
	th := tm.NewThread()
	// Insert at tail, head, middle.
	for _, k := range []int{10, 1, 5} {
		if _, err := l.InsertAtomic(th, k); err != nil {
			t.Fatal(err)
		}
	}
	// Remove head, then tail.
	if rem, _ := l.RemoveAtomic(th, 1); !rem {
		t.Fatal("remove head failed")
	}
	if rem, _ := l.RemoveAtomic(th, 10); !rem {
		t.Fatal("remove tail failed")
	}
	keys, _ := l.KeysAtomic(th)
	if len(keys) != 1 || keys[0] != 5 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestListConcurrentDistinctRanges(t *testing.T) {
	// Workers insert disjoint ranges concurrently; the final list is the
	// sorted union.
	tm := newTM(t, tbtm.ZLinearizable)
	l := NewList(tm, intLess)
	const workers, per = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := tm.NewThread()
			for i := 0; i < per; i++ {
				if _, err := l.InsertAtomic(th, w*per+i); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	keys, err := l.KeysAtomic(tm.NewThread())
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != workers*per {
		t.Fatalf("len = %d, want %d", len(keys), workers*per)
	}
	for i, k := range keys {
		if k != i {
			t.Fatalf("keys[%d] = %d", i, k)
		}
	}
}

func TestListConcurrentMixedWithScans(t *testing.T) {
	// Inserts and removes race with long scans; scans must always see a
	// sorted, duplicate-free list.
	tm := newTM(t, tbtm.ZLinearizable)
	l := NewList(tm, intLess)
	th0 := tm.NewThread()
	for i := 0; i < 20; i += 2 {
		if _, err := l.InsertAtomic(th0, i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := tm.NewThread()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(20)
				if rng.Intn(2) == 0 {
					_, _ = l.InsertAtomic(th, k)
				} else {
					_, _ = l.RemoveAtomic(th, k)
				}
			}
		}(w)
	}
	th := tm.NewThread()
	for scan := 0; scan < 40; scan++ {
		keys, err := l.KeysAtomic(th)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("scan %d: unsorted/duplicate keys %v", scan, keys)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// --- Queue ---

func TestQueueFIFO(t *testing.T) {
	tm := newTM(t, tbtm.ZLinearizable)
	q := NewQueue[string](tm)
	th := tm.NewThread()
	for _, s := range []string{"a", "b", "c"} {
		if err := q.EnqueueAtomic(th, s); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"a", "b", "c"} {
		got, err := q.DequeueAtomic(th)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Dequeue = %q, want %q", got, want)
		}
	}
	if _, err := q.DequeueAtomic(th); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty Dequeue = %v, want ErrEmpty", err)
	}
}

func TestQueueLenAndDrain(t *testing.T) {
	tm := newTM(t, tbtm.Linearizable)
	q := NewQueue[int](tm)
	th := tm.NewThread()
	for i := 1; i <= 5; i++ {
		if err := q.EnqueueAtomic(th, i); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	var drained []int
	if err := th.Atomic(tbtm.Long, func(tx tbtm.Tx) error {
		var err error
		n, err = q.Len(tx)
		if err != nil {
			return err
		}
		drained, err = q.Drain(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 || len(drained) != 5 {
		t.Fatalf("len %d, drained %v", n, drained)
	}
	for i, v := range drained {
		if v != i+1 {
			t.Fatalf("drained = %v", drained)
		}
	}
	if _, err := q.DequeueAtomic(th); !errors.Is(err, ErrEmpty) {
		t.Fatal("queue not empty after drain")
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	tm := newTM(t, tbtm.ZLinearizable)
	q := NewQueue[int](tm)
	// log is the committed dequeue order: each consumer appends the value
	// it took inside the dequeuing transaction, so the log's order is the
	// queue's serialization order, not the order consumers got scheduled.
	log := tbtm.NewVar[[]int](tm, nil)
	const producers, per = 3, 40
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			th := tm.NewThread()
			for i := 0; i < per; i++ {
				if err := q.EnqueueAtomic(th, p*per+i); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	produced := make(chan struct{})
	go func() {
		pwg.Wait()
		close(produced)
	}()
	var cwg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			th := tm.NewThread()
			for {
				// A dequeue that began after every enqueue committed and
				// still found the queue empty ends the consumer.
				var done bool
				select {
				case <-produced:
					done = true
				default:
				}
				err := th.Atomic(tbtm.Short, func(tx tbtm.Tx) error {
					v, err := q.Dequeue(tx)
					if err != nil {
						return err
					}
					l, err := log.Read(tx)
					if err != nil {
						return err
					}
					return log.Write(tx, append(l[:len(l):len(l)], v))
				})
				if errors.Is(err, ErrEmpty) {
					if done {
						return
					}
					runtime.Gosched()
					continue
				}
				if err != nil {
					t.Errorf("dequeue: %v", err)
					return
				}
			}
		}()
	}
	cwg.Wait()
	<-produced

	th := tm.NewThread()
	var order []int
	if err := th.AtomicReadOnly(tbtm.Short, func(tx tbtm.Tx) error {
		var err error
		order, err = log.Read(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != producers*per {
		t.Fatalf("dequeued %d values, want %d", len(order), producers*per)
	}
	seen := make(map[int]bool)
	last := make(map[int]int) // FIFO check per producer
	for _, v := range order {
		if seen[v] {
			t.Errorf("value %d dequeued twice", v)
		}
		seen[v] = true
		p := v / per
		if l, ok := last[p]; ok && v < l {
			t.Errorf("producer %d order violated: %d after %d", p, v, l)
		}
		last[p] = v
	}
}

func TestQueueTransfersCompose(t *testing.T) {
	// Atomically move an element between queues: never observed in both
	// or neither.
	tm := newTM(t, tbtm.ZLinearizable)
	a, b := NewQueue[int](tm), NewQueue[int](tm)
	th := tm.NewThread()
	for i := 0; i < 10; i++ {
		if err := a.EnqueueAtomic(th, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := th.Atomic(tbtm.Short, func(tx tbtm.Tx) error {
			v, err := a.Dequeue(tx)
			if err != nil {
				return err
			}
			return b.Enqueue(tx, v)
		}); err != nil {
			t.Fatal(err)
		}
	}
	var la, lb int
	if err := th.AtomicReadOnly(tbtm.Short, func(tx tbtm.Tx) error {
		var err error
		if la, err = a.Len(tx); err != nil {
			return err
		}
		lb, err = b.Len(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if la != 0 || lb != 10 {
		t.Fatalf("lens = %d, %d", la, lb)
	}
}

// --- Map ---

func TestMapBasics(t *testing.T) {
	tm := newTM(t, tbtm.ZLinearizable)
	m := NewMap[string, int](tm, 16, StringHash)
	th := tm.NewThread()

	ins, err := m.PutAtomic(th, "x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ins {
		t.Fatal("fresh Put = false")
	}
	ins, err = m.PutAtomic(th, "x", 2)
	if err != nil {
		t.Fatal(err)
	}
	if ins {
		t.Fatal("update Put = true")
	}
	v, ok, err := m.GetAtomic(th, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || v != 2 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	_, ok, err = m.GetAtomic(th, "missing")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Get(missing) = true")
	}
	del, err := m.DeleteAtomic(th, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !del {
		t.Fatal("Delete = false")
	}
	del, err = m.DeleteAtomic(th, "x")
	if err != nil {
		t.Fatal(err)
	}
	if del {
		t.Fatal("second Delete = true")
	}
}

func TestMapSizeAndSnapshot(t *testing.T) {
	tm := newTM(t, tbtm.ZLinearizable)
	m := NewMap[int, string](tm, 8, IntHash)
	th := tm.NewThread()
	for i := 0; i < 50; i++ {
		if _, err := m.PutAtomic(th, i, "v"); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	if err := th.AtomicReadOnly(tbtm.Short, func(tx tbtm.Tx) error {
		var err error
		n, err = m.Len(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("Len = %d", n)
	}
	snap, err := m.SnapshotAtomic(th)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 50 {
		t.Fatalf("snapshot size = %d", len(snap))
	}
}

func TestMapRangeEarlyStop(t *testing.T) {
	tm := newTM(t, tbtm.Linearizable)
	m := NewMap[int, int](tm, 4, IntHash)
	th := tm.NewThread()
	for i := 0; i < 20; i++ {
		if _, err := m.PutAtomic(th, i, i); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	if err := th.AtomicReadOnly(tbtm.Long, func(tx tbtm.Tx) error {
		seen = 0
		return m.Range(tx, func(int, int) bool {
			seen++
			return seen < 5
		})
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("Range visited %d entries after early stop", seen)
	}
}

func TestMapSingleBucketDegenerate(t *testing.T) {
	tm := newTM(t, tbtm.Linearizable)
	m := NewMap[int, int](tm, 0, IntHash) // clamps to 1 bucket
	th := tm.NewThread()
	for i := 0; i < 10; i++ {
		if _, err := m.PutAtomic(th, i, i*i); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := m.GetAtomic(th, 7)
	if err != nil || !ok || v != 49 {
		t.Fatalf("Get(7) = %d, %v, %v", v, ok, err)
	}
}

func TestMapConsistentSnapshotsUnderWrites(t *testing.T) {
	// Writers keep pairs (k, k+offset) synchronized; snapshots must
	// always see matching pairs.
	tm := newTM(t, tbtm.ZLinearizable)
	m := NewMap[int, int](tm, 32, IntHash)
	th0 := tm.NewThread()
	const pairs = 8
	for i := 0; i < pairs; i++ {
		if _, err := m.PutAtomic(th0, i, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.PutAtomic(th0, 100+i, 0); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := tm.NewThread()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				k := (w*3 + i) % pairs
				if err := th.Atomic(tbtm.Short, func(tx tbtm.Tx) error {
					v, _, err := m.Get(tx, k)
					if err != nil {
						return err
					}
					if _, err := m.Put(tx, k, v+1); err != nil {
						return err
					}
					_, err = m.Put(tx, 100+k, v+1)
					return err
				}); err != nil {
					t.Errorf("paired put: %v", err)
					return
				}
			}
		}(w)
	}
	th := tm.NewThread()
	for scan := 0; scan < 30; scan++ {
		snap, err := m.SnapshotAtomic(th)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pairs; i++ {
			if snap[i] != snap[100+i] {
				t.Fatalf("scan %d: pair %d torn: %d vs %d", scan, i, snap[i], snap[100+i])
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestStructsAcrossConsistencyLevels(t *testing.T) {
	// The structures work under every consistency level (single-threaded
	// here; concurrent guarantees differ by level).
	for _, level := range []tbtm.Consistency{
		tbtm.Linearizable, tbtm.SingleVersion, tbtm.CausallySerializable,
		tbtm.Serializable, tbtm.ZLinearizable,
	} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			tm := newTM(t, level)
			th := tm.NewThread()
			l := NewList(tm, intLess)
			q := NewQueue[int](tm)
			m := NewMap[int, int](tm, 4, IntHash)
			for i := 0; i < 10; i++ {
				if _, err := l.InsertAtomic(th, i); err != nil {
					t.Fatal(err)
				}
				if err := q.EnqueueAtomic(th, i); err != nil {
					t.Fatal(err)
				}
				if _, err := m.PutAtomic(th, i, i); err != nil {
					t.Fatal(err)
				}
			}
			keys, err := l.KeysAtomic(th)
			if err != nil || len(keys) != 10 {
				t.Fatalf("list: %v, %v", keys, err)
			}
			v, err := q.DequeueAtomic(th)
			if err != nil || v != 0 {
				t.Fatalf("queue: %d, %v", v, err)
			}
			snap, err := m.SnapshotAtomic(th)
			if err != nil || len(snap) != 10 {
				t.Fatalf("map: %v, %v", snap, err)
			}
		})
	}
}
