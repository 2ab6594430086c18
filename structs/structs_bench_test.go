package structs

import (
	"fmt"
	"testing"

	"tbtm"
)

func BenchmarkListInsertRemove(b *testing.B) {
	for _, size := range []int{16, 128} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			tm := tbtm.MustNew(tbtm.WithConsistency(tbtm.ZLinearizable))
			l := NewList(tm, intLess)
			th := tm.NewThread()
			for i := 0; i < size; i += 2 {
				if _, err := l.InsertAtomic(th, i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i*7)%size | 1 // odd keys: always absent before insert
				if _, err := l.InsertAtomic(th, k); err != nil {
					b.Fatal(err)
				}
				if _, err := l.RemoveAtomic(th, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQueueEnqueueDequeue(b *testing.B) {
	tm := tbtm.MustNew(tbtm.WithConsistency(tbtm.ZLinearizable))
	q := NewQueue[int](tm)
	th := tm.NewThread()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.EnqueueAtomic(th, i); err != nil {
			b.Fatal(err)
		}
		if _, err := q.DequeueAtomic(th); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueBlockingHandoff measures the event-driven producer →
// consumer handoff: the consumer parks on the empty queue, the producer
// wakes it per element. Compare against BenchmarkQueueEnqueueDequeue to
// see the cost of a park/wake round trip; the wake probe itself is the
// one atomic load an uncontended commit pays.
func BenchmarkQueueBlockingHandoff(b *testing.B) {
	tm := tbtm.MustNew(tbtm.WithConsistency(tbtm.ZLinearizable), tbtm.WithBlockingRetry())
	q := NewQueue[int](tm)
	done := make(chan struct{})
	go func() {
		defer close(done)
		th := tm.NewThread()
		for i := 0; i < b.N; i++ {
			if _, err := q.TakeAtomic(th); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	th := tm.NewThread()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.PutAtomic(th, i); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

// BenchmarkMapPutGet overwrites and reads back keys at several bucket
// occupancies. Leaves split past 16 entries, so the cost per op should
// stay flat from a few keys per bucket to a thousand.
func BenchmarkMapPutGet(b *testing.B) {
	const buckets = 64
	for _, perBucket := range []int{4, 100, 1000} {
		b.Run(fmt.Sprintf("perBucket=%d", perBucket), func(b *testing.B) {
			tm := tbtm.MustNew(tbtm.WithConsistency(tbtm.ZLinearizable))
			m := NewMap[int, int](tm, buckets, IntHash)
			th := tm.NewThread()
			keys := buckets * perBucket
			for k := 0; k < keys; k++ {
				if _, err := m.PutAtomic(th, k, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i * 7919) % keys
				if _, err := m.PutAtomic(th, k, i); err != nil {
					b.Fatal(err)
				}
				if _, _, err := m.GetAtomic(th, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMapSnapshot(b *testing.B) {
	tm := tbtm.MustNew(tbtm.WithConsistency(tbtm.ZLinearizable))
	m := NewMap[int, int](tm, 64, IntHash)
	th := tm.NewThread()
	for i := 0; i < 256; i++ {
		if _, err := m.PutAtomic(th, i, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SnapshotAtomic(th); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkipListInsertRemove(b *testing.B) {
	for _, size := range []int{128, 1024} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			tm := tbtm.MustNew(tbtm.WithConsistency(tbtm.ZLinearizable))
			s := NewSkipList(tm, intLess)
			th := tm.NewThread()
			for i := 0; i < size; i += 2 {
				if _, err := s.InsertAtomic(th, i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i*7)%size | 1 // odd keys: always absent before insert
				if _, err := s.InsertAtomic(th, k); err != nil {
					b.Fatal(err)
				}
				if _, err := s.RemoveAtomic(th, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkipListScanUnderChurn compares the long whole-set scan under
// concurrent short inserts across consistency levels — the data-structure
// variant of the paper's Figure 6/7 story: under ZLinearizable the scan
// is a zone-protected long transaction, under Linearizable it must win
// the validation race.
func BenchmarkSkipListScanUnderChurn(b *testing.B) {
	for _, level := range []tbtm.Consistency{tbtm.Linearizable, tbtm.ZLinearizable} {
		b.Run(level.String(), func(b *testing.B) {
			tm := tbtm.MustNew(tbtm.WithConsistency(level), tbtm.WithVersions(1024))
			s := NewSkipList(tm, intLess)
			th := tm.NewThread()
			for i := 0; i < 512; i++ {
				if _, err := s.InsertAtomic(th, i*2); err != nil {
					b.Fatal(err)
				}
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				thW := tm.NewThread()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := (i*13)%1024 | 1
					_, _ = s.InsertAtomic(thW, k)
					_, _ = s.RemoveAtomic(thW, k)
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.KeysAtomic(th); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			<-done
		})
	}
}
