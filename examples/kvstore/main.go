// KVStore: the repo's key-value workload, served over the wire. By
// default this example starts an in-process tbtmd on a loopback port
// and drives it as a network CLIENT: atomic MULTI/EXEC scripts
// increment counter/mirror pairs, consistent RANGE snapshots check the
// pair invariant while writers run, and a blocking BTAKE parks
// server-side until a remote SET wakes it — the classic workload the
// paper's introduction motivates (long transactions over many objects
// competing with short updates), now with a protocol in between.
//
//	go run ./examples/kvstore                  # in-process server, wire client
//	go run ./examples/kvstore -addr host:port  # drive an external tbtmd
//	go run ./examples/kvstore -inprocess       # in-process demo on structs.Map
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"strconv"
	"sync"
	"time"

	"tbtm"
	"tbtm/server"
)

const pairs = 16

func main() {
	inprocess := flag.Bool("inprocess", false, "run the original in-process demo (no networking)")
	addr := flag.String("addr", "", "drive an external tbtmd at this address (default: start one in-process)")
	flag.Parse()
	if *inprocess {
		runInProcess()
		return
	}
	if err := runClient(*addr); err != nil {
		log.Fatal(err)
	}
}

func runClient(addr string) error {
	// Start an in-process server unless pointed at an external one. The
	// demo only ever talks to it through the wire protocol.
	if addr == "" {
		srv, err := server.New(server.Config{Consistency: tbtm.ZLinearizable})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(ln)
		defer srv.Close()
		addr = ln.Addr().String()
		fmt.Printf("kvstore: started in-process tbtmd on %s\n", addr)
	}

	// Seed all counter/mirror pairs in ONE atomic script.
	seed, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer seed.Close()
	var script []server.MultiOp
	for i := 0; i < pairs; i++ {
		script = append(script,
			server.MSet("c"+strconv.Itoa(i), []byte("0")),
			server.MSet("m"+strconv.Itoa(i), []byte("0")))
	}
	if _, committed, err := seed.MultiExec(script); err != nil || !committed {
		return fmt.Errorf("seeding: committed=%v err=%v", committed, err)
	}

	// Writers: each picks a pair and increments counter AND mirror via
	// an optimistic MULTI(CAS, CAS) — the script commits atomically or
	// rolls back entirely, so no snapshot can ever see a torn pair.
	const (
		writers       = 3
		incrPerWriter = 40
	)
	var wg sync.WaitGroup
	werrs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := server.Dial(addr)
			if err != nil {
				werrs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < incrPerWriter; i++ {
				k := strconv.Itoa((w*7 + i) % pairs)
				for {
					res, committed, err := cl.MultiExec([]server.MultiOp{
						server.MGet("c" + k), server.MGet("m" + k),
					})
					if err != nil || !committed {
						werrs <- fmt.Errorf("read pair: committed=%v err=%v", committed, err)
						return
					}
					cur, _ := strconv.Atoi(string(res[0].Val))
					next := []byte(strconv.Itoa(cur + 1))
					_, committed, err = cl.MultiExec([]server.MultiOp{
						server.MCas("c"+k, res[0].Val, true, next),
						server.MCas("m"+k, res[1].Val, true, next),
					})
					if err != nil {
						werrs <- err
						return
					}
					if committed {
						break // both cells advanced atomically
					}
					// Lost the race: re-read and retry the script.
				}
			}
		}(w)
	}

	// Snapshot reader: a RANGE is one long read-only transaction
	// server-side, so counter == mirror must hold in every reply even
	// while writers commit between pairs.
	snapCl, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer snapCl.Close()
	snapshots := 0
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	for done := false; !done; {
		select {
		case <-writersDone:
			done = true
		default:
			time.Sleep(2 * time.Millisecond)
		}
		kvs, err := snapCl.Range("", "", 0)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		snap := make(map[string]string, len(kvs))
		for _, kv := range kvs {
			snap[kv.Key] = string(kv.Val)
		}
		for i := 0; i < pairs; i++ {
			k := strconv.Itoa(i)
			if snap["c"+k] != snap["m"+k] {
				return fmt.Errorf("snapshot %d torn: c%s=%s m%s=%s",
					snapshots, k, snap["c"+k], k, snap["m"+k])
			}
		}
		snapshots++
	}
	select {
	case err := <-werrs:
		return err
	default:
	}

	// Blocking take over the wire: the consumer parks server-side (no
	// engine thread burned) until the producer's SET commits.
	taken := make(chan []byte, 1)
	terr := make(chan error, 1)
	consumer, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer consumer.Close()
	go func() {
		v, err := consumer.BTake("job")
		if err != nil {
			terr <- err
			return
		}
		taken <- v
	}()
	time.Sleep(20 * time.Millisecond) // let the consumer park
	if err := seed.Set("job", []byte("build-the-thing")); err != nil {
		return err
	}
	select {
	case v := <-taken:
		fmt.Printf("kvstore: blocking take woken by remote SET: %q\n", v)
	case err := <-terr:
		return fmt.Errorf("blocking take: %w", err)
	case <-time.After(10 * time.Second):
		return errors.New("blocking take never woke")
	}

	// Tally and report through the wire.
	total := 0
	for i := 0; i < pairs; i++ {
		v, _, err := seed.Get("c" + strconv.Itoa(i))
		if err != nil {
			return err
		}
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	stats, err := seed.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("kvstore: %d consistent snapshots, %d total increments (want %d)\n",
		snapshots, total, writers*incrPerWriter)
	fmt.Printf("kvstore: engine commits=%d aborts=%d parks=%d wakeups=%d; executor acquires=%d waits=%d\n",
		stats.Engine.Commits+stats.Engine.LongCommits, stats.Engine.Aborts,
		stats.Engine.Parks, stats.Engine.Wakeups,
		stats.Metrics.Executor.Acquires, stats.Metrics.Executor.AcquireWaits)
	if total != writers*incrPerWriter {
		return fmt.Errorf("lost increments: %d != %d", total, writers*incrPerWriter)
	}
	return nil
}
