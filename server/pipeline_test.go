// End-to-end tests for the pipelined protocol: ordering, batch
// atomicity policy, and blocking ops parked mid-pipeline.
package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// driverSubtest names the one subtest each test below runs. The name
// dates from when an epoll connection driver ran the same bodies and
// goroutine-per-connection, now the only driver, was the fallback; it
// is kept so each test's ID stays the same across the suite's history.
const driverSubtest = "fallback"

// TestServerPipelinedOrdering pins the ordering guarantee: the
// responses to a window of non-blocking requests arrive in request
// order, whatever mix of batched and solo ops the window decodes into.
func TestServerPipelinedOrdering(t *testing.T) { t.Run(driverSubtest, runPipelinedOrdering) }

func runPipelinedOrdering(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialT(t, addr)
	p := cl.Pipe()

	const window = 64
	var seqs []uint64
	for i := 0; i < window; i++ {
		k := fmt.Sprintf("k%d", i%8)
		switch i % 4 {
		case 0:
			seqs = append(seqs, p.Set(k, []byte(fmt.Sprintf("v%d", i))))
		case 1:
			seqs = append(seqs, p.Get(k))
		case 2:
			seqs = append(seqs, p.Ping()) // splits the batch; order must hold regardless
		default:
			seqs = append(seqs, p.Del(k))
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < window; i++ {
		r, err := p.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if r.Err != nil {
			t.Fatalf("reply %d: %v", i, r.Err)
		}
		if r.Seq != seqs[i] {
			t.Fatalf("reply %d out of order: seq %d, want %d", i, r.Seq, seqs[i])
		}
	}
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after draining", p.Outstanding())
	}
}

// TestServerPipelinedSeesOwnWrites pins read-your-writes through one
// pipelined window: a GET after a SET of the same key in the same
// burst (likely the same batch transaction) observes the write.
func TestServerPipelinedSeesOwnWrites(t *testing.T) { t.Run(driverSubtest, runPipelinedSeesOwnWrites) }

func runPipelinedSeesOwnWrites(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialT(t, addr)
	p := cl.Pipe()

	p.Set("rw", []byte("one"))
	gSeq := p.Get("rw")
	p.Set("rw", []byte("two"))
	g2Seq := p.Get("rw")
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for p.Outstanding() > 0 {
		r, err := p.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if r.Err != nil {
			t.Fatalf("reply %d: %v", r.Seq, r.Err)
		}
		switch r.Seq {
		case gSeq:
			if !r.OK || !bytes.Equal(r.Val, []byte("one")) {
				t.Fatalf("first get = %q ok=%v, want \"one\"", r.Val, r.OK)
			}
		case g2Seq:
			if !r.OK || !bytes.Equal(r.Val, []byte("two")) {
				t.Fatalf("second get = %q ok=%v, want \"two\"", r.Val, r.OK)
			}
		}
	}
}

// TestServerBatchCasIndependence pins the batch-atomicity policy over
// the wire: a failed CAS inside a pipelined window is a per-op result
// (swapped = false), and the independent ops around it still commit —
// unlike OpMulti, where a failed CAS aborts the whole script.
func TestServerBatchCasIndependence(t *testing.T) { t.Run(driverSubtest, runBatchCasIndependence) }

func runBatchCasIndependence(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialT(t, addr)
	if err := cl.Set("guard", []byte("actual")); err != nil {
		t.Fatalf("seed: %v", err)
	}
	p := cl.Pipe()
	aSeq := p.Set("a", []byte("1"))
	casSeq := p.Cas("guard", []byte("wrong"), true, []byte("clobbered"))
	bSeq := p.Set("b", []byte("2"))
	gaSeq := p.Get("a")
	gbSeq := p.Get("b")
	ggSeq := p.Get("guard")
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	replies := map[uint64]Reply{}
	for p.Outstanding() > 0 {
		r, err := p.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if r.Err != nil {
			t.Fatalf("reply %d: %v", r.Seq, r.Err)
		}
		r.Val = append([]byte(nil), r.Val...) // Val is only valid until the next Recv
		replies[r.Seq] = r
	}
	if replies[casSeq].OK {
		t.Fatal("failed CAS reported swapped")
	}
	for _, s := range []uint64{aSeq, bSeq} {
		if !replies[s].OK {
			t.Fatalf("independent SET (seq %d) did not succeed", s)
		}
	}
	if r := replies[gaSeq]; !r.OK || !bytes.Equal(r.Val, []byte("1")) {
		t.Fatalf("a = %q ok=%v after failed sibling CAS, want \"1\"", r.Val, r.OK)
	}
	if r := replies[gbSeq]; !r.OK || !bytes.Equal(r.Val, []byte("2")) {
		t.Fatalf("b = %q ok=%v after failed sibling CAS, want \"2\"", r.Val, r.OK)
	}
	if r := replies[ggSeq]; !r.OK || !bytes.Equal(r.Val, []byte("actual")) {
		t.Fatalf("guard = %q ok=%v, want untouched \"actual\"", r.Val, r.OK)
	}
}

// TestServerPipelinedParkedBTake pins the blocking/pipelining split: a
// BTAKE that parks mid-window neither blocks the requests behind it
// nor reorders them; its own response arrives later, out of order,
// matched by sequence ID.
func TestServerPipelinedParkedBTake(t *testing.T) { t.Run(driverSubtest, runPipelinedParkedBTake) }

func runPipelinedParkedBTake(t *testing.T) {
	srv, addr := startServer(t, Config{})
	cl := dialT(t, addr)
	feeder := dialT(t, addr)
	p := cl.Pipe()

	setSeq := p.Set("k1", []byte("v1"))
	btakeSeq := p.BTake("queue") // key absent: parks
	getSeq := p.Get("k1")
	pingSeq := p.Ping()
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// The three non-blocking replies arrive in request order, without
	// waiting for the parked BTAKE.
	for _, want := range []uint64{setSeq, getSeq, pingSeq} {
		r, err := p.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if r.Err != nil {
			t.Fatalf("reply %d: %v", r.Seq, r.Err)
		}
		if r.Seq != want {
			t.Fatalf("non-blocking reply seq %d, want %d (BTAKE must not block/reorder)", r.Seq, want)
		}
		if r.Seq == getSeq && !bytes.Equal(r.Val, []byte("v1")) {
			t.Fatalf("get past parked BTAKE = %q, want \"v1\"", r.Val)
		}
	}
	// Feed the queue; the BTAKE reply arrives out of order.
	waitParked(t, srv.TM(), 1)
	if err := feeder.Set("queue", []byte("job")); err != nil {
		t.Fatalf("feed: %v", err)
	}
	r, err := p.Recv()
	if err != nil {
		t.Fatalf("recv btake: %v", err)
	}
	if r.Seq != btakeSeq || r.Err != nil || !bytes.Equal(r.Val, []byte("job")) {
		t.Fatalf("btake reply = seq %d val %q err %v, want seq %d \"job\"", r.Seq, r.Val, r.Err, btakeSeq)
	}
	// The take consumed the key.
	if _, ok, err := feeder.Get("queue"); err != nil || ok {
		t.Fatalf("queue after btake: ok=%v err=%v, want consumed", ok, err)
	}
}

// TestServerPipelinedBlockingDisconnect pins lease reclamation for a
// pipelining client that parks a BTAKE and then vanishes: teardown
// commits the connection's cancel flag, the parked transaction wakes
// with errClientGone, and the blocking lease returns to the pool
// without consuming the key.
func TestServerPipelinedBlockingDisconnect(t *testing.T) {
	t.Run(driverSubtest, runPipelinedBlockingDisconnect)
}

func runPipelinedBlockingDisconnect(t *testing.T) {
	srv, addr := startServer(t, Config{BlockingLeases: 1})
	cl := dialT(t, addr)
	p := cl.Pipe()
	p.BTake("never-fed")
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	waitParked(t, srv.TM(), 1)
	cl.Close()

	// The single blocking lease must come back: a second client's
	// blocking op can only run if the first lease was reclaimed.
	cl2 := dialT(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := cl2.BTake("fed")
		done <- err
	}()
	feeder := dialT(t, addr)
	deadline := time.Now().Add(10 * time.Second)
	for srv.TM().Stats().Parks < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second BTAKE never parked: blocking lease not reclaimed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := feeder.Set("fed", []byte("x")); err != nil {
		t.Fatalf("feed: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("second btake: %v", err)
	}
	// The abandoned key must NOT have been consumed by the vanished
	// client's woken transaction.
	if _, ok, err := feeder.Get("never-fed"); err != nil || ok {
		t.Fatalf("never-fed: ok=%v err=%v, want still absent (not created, not consumed)", ok, err)
	}
}
