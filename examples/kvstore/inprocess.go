package main

// The original in-process demo (-inprocess): the same counter/mirror
// workload against the library API directly, on a structs.Map. Kept as
// the no-networking baseline the wire demo is measured against.

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tbtm"
	"tbtm/structs"
)

func runInProcess() {
	tm, err := tbtm.New(tbtm.WithConsistency(tbtm.ZLinearizable))
	if err != nil {
		log.Fatal(err)
	}
	store := structs.NewMap[string, int](tm, 64, structs.StringHash)

	// Seed: counters c0..c15, each starting at 0. Writers increment a
	// counter and its mirror together; every snapshot must see
	// counter == mirror for all pairs.
	seedTh := tm.NewThread()
	for i := 0; i < pairs; i++ {
		if _, err := store.PutAtomic(seedTh, fmt.Sprintf("c%d", i), 0); err != nil {
			log.Fatal(err)
		}
		if _, err := store.PutAtomic(seedTh, fmt.Sprintf("m%d", i), 0); err != nil {
			log.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := tm.NewThread()
			i := 0
			for !stop.Load() {
				i++
				k := (w*7 + i) % pairs
				ck, mk := fmt.Sprintf("c%d", k), fmt.Sprintf("m%d", k)
				// Paired increment in ONE transaction: Get+Put of both keys.
				err := th.Atomic(tbtm.Short, func(tx tbtm.Tx) error {
					for _, key := range [2]string{ck, mk} {
						v, _, err := store.Get(tx, key)
						if err != nil {
							return err
						}
						if _, err := store.Put(tx, key, v+1); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					log.Fatalf("paired increment: %v", err)
				}
			}
		}(w)
	}

	// Snapshots: counter/mirror pairs must always match. Space them out
	// so the writers make progress between scans.
	th := tm.NewThread()
	for round := 0; round < 30; round++ {
		time.Sleep(2 * time.Millisecond)
		snap, err := store.SnapshotAtomic(th)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < pairs; i++ {
			c, m := snap[fmt.Sprintf("c%d", i)], snap[fmt.Sprintf("m%d", i)]
			if c != m {
				log.Fatalf("snapshot %d torn: c%d=%d m%d=%d", round, i, c, i, m)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	snap, err := store.SnapshotAtomic(th)
	if err != nil {
		log.Fatal(err)
	}
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total int
	for _, k := range keys {
		if k[0] == 'c' {
			total += snap[k]
		}
	}
	fmt.Printf("store holds %d keys; 30 consistent snapshots taken; %d total increments\n",
		len(snap), total)
	fmt.Printf("stats: %+v\n", tm.Stats())
}
