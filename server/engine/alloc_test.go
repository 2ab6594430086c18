package engine

import (
	"fmt"
	"runtime"
	"testing"

	"tbtm"
	"tbtm/server/wire"
)

// The engine layer's allocation contract. The STM's warm paths are
// zero-alloc (root alloc_test.go); the executor + store must not
// squander that between lease and bucket:
//
//  1. Site strings are package constants, so AtomicSite's classifier
//     lookup never allocates a key — building "set:"+key per request
//     would regress this pin.
//  2. The executor's Acquire/Do/Release cycle is channel+atomics only.
//  3. A warm single-key read through executor + classifier + store
//     allocates NOTHING on LSA; a warm overwrite allocates only what
//     genuinely escapes (the copied leaf slice and its interface box),
//     independent of request count.
//  4. The copied leaf holds at most 16 entries however many keys share
//     a root bucket, so a warm overwrite allocates under 1 KiB.
const (
	maxAllocsWarmGet = 0
	// The overwrite path rebuilds the map leaf's []mapEntry slice (one
	// alloc) and boxes it into the Object's `any` slot (a second); the
	// skiplist index is untouched when the key already exists.
	maxAllocsWarmSet = 2
	// A full leaf is 16 entries of 48 bytes (hash, string key, []byte
	// value) plus the 24-byte slice box.
	maxBytesWarmSet = 1024
)

func newAllocEngine(t *testing.T, buckets, fast, blocking int) (*Store, *Executor) {
	t.Helper()
	tm, err := tbtm.New(
		tbtm.WithConsistency(tbtm.ZLinearizable),
		tbtm.WithBlockingRetry(),
		tbtm.WithAutoClassify(0),
	)
	if err != nil {
		t.Fatalf("tbtm.New: %v", err)
	}
	return NewStore(tm, buckets), NewExecutor(tm, fast, blocking, &Metrics{})
}

func TestWarmServerOpAllocs(t *testing.T) {
	store, e := newAllocEngine(t, 1024, 2, 1)
	val := []byte("payload")

	// Prebound closures, as the conn handler holds them.
	setFn := func(th *tbtm.Thread) error {
		return store.Set(th, "hot", val)
	}
	getFn := func(th *tbtm.Thread) error {
		_, _, err := store.Get(th, "hot")
		return err
	}
	doSet := func() {
		if err := e.Do(nil, wire.OpSet, false, setFn); err != nil {
			t.Fatalf("set: %v", err)
		}
	}
	doGet := func() {
		if err := e.Do(nil, wire.OpGet, false, getFn); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	for i := 0; i < 64; i++ { // warm descriptors, pools, classifier site
		doSet()
		doGet()
	}
	if n := testing.AllocsPerRun(200, doGet); n > maxAllocsWarmGet {
		t.Errorf("warm server GET: %.1f allocs/op, want <= %d", n, maxAllocsWarmGet)
	}
	if n := testing.AllocsPerRun(200, doSet); n > maxAllocsWarmSet {
		t.Errorf("warm server SET: %.1f allocs/op, want <= %d", n, maxAllocsWarmSet)
	}
}

// TestWarmServerSetBytesFlat pins the overwrite cost in a crowded
// store: 128 keys per root bucket, far past the 16 a leaf holds, so the
// buckets have split and an overwrite copies one leaf, not the bucket.
func TestWarmServerSetBytesFlat(t *testing.T) {
	const buckets, keysPerBucket = 16, 128
	store, e := newAllocEngine(t, buckets, 2, 1)
	keys := make([]string, buckets*keysPerBucket)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%05d", i)
		if err := e.Do(nil, wire.OpSet, false, func(th *tbtm.Thread) error {
			return store.Set(th, keys[i], []byte("initial"))
		}); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	val := []byte("payload")
	// Overwrite a rotating set of keys, so the bound covers leaves of
	// every size the preload left.
	hot := keys[:64]
	next := 0
	setFn := func(th *tbtm.Thread) error {
		return store.Set(th, hot[next%len(hot)], val)
	}
	doSet := func() {
		if err := e.Do(nil, wire.OpSet, false, setFn); err != nil {
			t.Fatalf("set: %v", err)
		}
		next++
	}
	for i := 0; i < 4*len(hot); i++ { // warm descriptors, pools, classifier site
		doSet()
	}
	if n := testing.AllocsPerRun(256, doSet); n > maxAllocsWarmSet {
		t.Errorf("warm crowded SET: %.1f allocs/op, want <= %d", n, maxAllocsWarmSet)
	}
	const runs = 1024
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		doSet()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	if per > maxBytesWarmSet {
		t.Errorf("warm crowded SET: %d bytes/op, want <= %d", per, maxBytesWarmSet)
	}
	t.Logf("warm crowded SET: %d bytes/op", per)
}

// TestWarmBlockingOpAllocs pins the non-parking fast path of the
// blocking opcodes: a WAIT whose expectation is already stale answers
// without parking and without allocating (LSA, warm).
func TestWarmBlockingOpAllocs(t *testing.T) {
	store, e := newAllocEngine(t, 1024, 1, 1)
	if err := e.Do(nil, wire.OpSet, false, func(th *tbtm.Thread) error {
		return store.Set(th, "w", []byte("current"))
	}); err != nil {
		t.Fatal(err)
	}
	old := []byte("stale")
	waitFn := func(th *tbtm.Thread) error {
		_, _, err := store.Wait(th, "w", true, old, nil)
		return err
	}
	doWait := func() {
		if err := e.Do(nil, wire.OpWait, true, waitFn); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}
	for i := 0; i < 64; i++ {
		doWait()
	}
	if n := testing.AllocsPerRun(200, doWait); n > 0 {
		t.Errorf("warm non-parking WAIT: %.1f allocs/op, want 0", n)
	}
}
