package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbtm"
	"tbtm/server/wire"
)

// startServer builds and serves a test instance on a loopback port.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestServerBasicOps(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialT(t, addr)

	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if _, ok, err := cl.Get("a"); err != nil || ok {
		t.Fatalf("get missing: ok=%v err=%v", ok, err)
	}
	if err := cl.Set("a", []byte("1")); err != nil {
		t.Fatalf("set: %v", err)
	}
	v, ok, err := cl.Get("a")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get: %q ok=%v err=%v", v, ok, err)
	}

	// CAS: wrong expectation fails, right one swaps, create-if-absent.
	if sw, err := cl.Cas("a", []byte("0"), true, []byte("2")); err != nil || sw {
		t.Fatalf("cas wrong expect: swapped=%v err=%v", sw, err)
	}
	if sw, err := cl.Cas("a", []byte("1"), true, []byte("2")); err != nil || !sw {
		t.Fatalf("cas: swapped=%v err=%v", sw, err)
	}
	if sw, err := cl.Cas("b", nil, false, []byte("9")); err != nil || !sw {
		t.Fatalf("cas create-if-absent: swapped=%v err=%v", sw, err)
	}
	if sw, err := cl.Cas("b", nil, false, []byte("9")); err != nil || sw {
		t.Fatalf("cas create on present key: swapped=%v err=%v", sw, err)
	}

	// DEL.
	if del, err := cl.Del("b"); err != nil || !del {
		t.Fatalf("del: deleted=%v err=%v", del, err)
	}
	if del, err := cl.Del("b"); err != nil || del {
		t.Fatalf("del again: deleted=%v err=%v", del, err)
	}

	// RANGE over the skiplist index: ordered, bounded, limited.
	for i := 0; i < 10; i++ {
		if err := cl.Set(fmt.Sprintf("r%02d", i), []byte{byte('0' + i)}); err != nil {
			t.Fatalf("set r%d: %v", i, err)
		}
	}
	pairs, err := cl.Range("r00", "r05", 0)
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	if len(pairs) != 5 {
		t.Fatalf("range [r00,r05): %d pairs, want 5", len(pairs))
	}
	for i, p := range pairs {
		want := fmt.Sprintf("r%02d", i)
		if p.Key != want || len(p.Val) != 1 {
			t.Fatalf("range pair %d = %q/%q, want key %q", i, p.Key, p.Val, want)
		}
	}
	pairs, err = cl.Range("r05", "", 3)
	if err != nil || len(pairs) != 3 || pairs[0].Key != "r05" {
		t.Fatalf("range limit: %v pairs=%v", err, pairs)
	}

	// STATS round-trips and reflects the traffic.
	reply, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if reply.Engine.Commits == 0 {
		t.Errorf("stats: zero engine commits after updates")
	}
	if reply.Metrics.Ops["set"].Count == 0 || reply.Metrics.Ops["get"].Count == 0 {
		t.Errorf("stats: op metrics not recorded: %+v", reply.Metrics.Ops)
	}
	if reply.Metrics.Executor.Acquires == 0 {
		t.Errorf("stats: executor acquires not recorded")
	}
}

func TestServerMultiExecObservesOwnWrites(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialT(t, addr)
	res, committed, err := cl.MultiExec([]MultiOp{
		MSet("x", []byte("v1")),
		MGet("x"),
		MDel("x"),
		MGet("x"),
	})
	if err != nil || !committed {
		t.Fatalf("multi: committed=%v err=%v", committed, err)
	}
	if !res[1].OK || string(res[1].Val) != "v1" {
		t.Fatalf("script read of own write = %+v", res[1])
	}
	if !res[2].OK {
		t.Fatalf("script delete of own write = %+v", res[2])
	}
	if res[3].OK {
		t.Fatalf("script read after own delete = %+v", res[3])
	}
}

func TestServerMultiCasAbortsWholeScript(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialT(t, addr)
	if err := cl.Set("guard", []byte("old")); err != nil {
		t.Fatal(err)
	}
	res, committed, err := cl.MultiExec([]MultiOp{
		MSet("side", []byte("effect")),
		MCas("guard", []byte("WRONG"), true, []byte("new")),
	})
	if err != nil {
		t.Fatalf("multi: %v", err)
	}
	if committed {
		t.Fatalf("script with failed CAS reported committed")
	}
	if len(res) != 2 || res[1].OK {
		t.Fatalf("results = %+v, want failed CAS last", res)
	}
	// The rollback must cover the earlier SET.
	if _, ok, _ := cl.Get("side"); ok {
		t.Fatalf("aborted script leaked a write")
	}
	if v, _, _ := cl.Get("guard"); string(v) != "old" {
		t.Fatalf("aborted script changed the guarded key: %q", v)
	}
}

// multiBackends are the criteria the acceptance workload must cover.
var multiBackends = []struct {
	name string
	c    tbtm.Consistency
}{
	{"lsa", tbtm.Linearizable},
	{"sstm", tbtm.Serializable},
	{"zstm", tbtm.ZLinearizable},
}

// TestServerMultiAtomicAcrossBackends drives concurrent paired-counter
// increments through MULTI(CAS,CAS) scripts while snapshot readers
// verify the pair invariant — scripts must commit atomically or not at
// all, on LSA and S-STM alike.
func TestServerMultiAtomicAcrossBackends(t *testing.T) {
	for _, b := range multiBackends {
		b := b
		t.Run(b.name, func(t *testing.T) {
			_, addr := startServer(t, Config{Consistency: b.c, Leases: 4, BlockingLeases: 4})
			seed := dialT(t, addr)
			const pairs = 4
			for i := 0; i < pairs; i++ {
				if _, _, err := seed.MultiExec([]MultiOp{
					MSet("c"+strconv.Itoa(i), []byte("0")),
					MSet("m"+strconv.Itoa(i), []byte("0")),
				}); err != nil {
					t.Fatalf("seed: %v", err)
				}
			}

			writers := 3
			iters := 40
			if testing.Short() {
				iters = 12
			}
			var wgW, wgR sync.WaitGroup
			errs := make(chan error, writers+1)
			for w := 0; w < writers; w++ {
				wgW.Add(1)
				go func(w int) {
					defer wgW.Done()
					cl, err := Dial(addr)
					if err != nil {
						errs <- err
						return
					}
					defer cl.Close()
					for i := 0; i < iters; i++ {
						k := strconv.Itoa((w + i) % pairs)
						for {
							// Read both counters, then CAS both up by one in
							// ONE script: atomic or nothing.
							res, committed, err := cl.MultiExec([]MultiOp{
								MGet("c" + k), MGet("m" + k),
							})
							if err != nil || !committed {
								errs <- fmt.Errorf("read script: committed=%v err=%v", committed, err)
								return
							}
							cv, _ := strconv.Atoi(string(res[0].Val))
							mv, _ := strconv.Atoi(string(res[1].Val))
							if cv != mv {
								errs <- fmt.Errorf("torn read: c%s=%d m%s=%d", k, cv, k, mv)
								return
							}
							next := []byte(strconv.Itoa(cv + 1))
							_, committed, err = cl.MultiExec([]MultiOp{
								MCas("c"+k, res[0].Val, true, next),
								MCas("m"+k, res[1].Val, true, next),
							})
							if err != nil {
								errs <- fmt.Errorf("cas script: %v", err)
								return
							}
							if committed {
								break
							}
						}
					}
				}(w)
			}

			// Snapshot reader: RANGE sees all pairs consistent.
			var stop atomic.Bool
			wgR.Add(1)
			go func() {
				defer wgR.Done()
				cl, err := Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer cl.Close()
				for !stop.Load() {
					kvs, err := cl.Range("", "", 0)
					if err != nil {
						errs <- fmt.Errorf("range: %v", err)
						return
					}
					snap := make(map[string]string, len(kvs))
					for _, kv := range kvs {
						snap[kv.Key] = string(kv.Val)
					}
					for i := 0; i < pairs; i++ {
						k := strconv.Itoa(i)
						if snap["c"+k] != snap["m"+k] {
							errs <- fmt.Errorf("torn snapshot: c%s=%q m%s=%q", k, snap["c"+k], k, snap["m"+k])
							return
						}
					}
				}
			}()

			writersDone := make(chan struct{})
			go func() {
				wgW.Wait()
				close(writersDone)
			}()
			select {
			case <-writersDone:
			case err := <-errs:
				t.Fatal(err)
			case <-time.After(120 * time.Second):
				t.Fatal("timeout waiting for writers")
			}
			stop.Store(true)
			wgR.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			// Final check: every pair consistent and no lost increments.
			total := 0
			for i := 0; i < pairs; i++ {
				k := strconv.Itoa(i)
				cv, _, err := seed.Get("c" + k)
				if err != nil {
					t.Fatal(err)
				}
				n, _ := strconv.Atoi(string(cv))
				total += n
			}
			if want := writers * iters; total != want {
				t.Fatalf("lost increments: total=%d want %d", total, want)
			}
		})
	}
}

func TestServerBTakeWokenByRemoteSet(t *testing.T) {
	srv, addr := startServer(t, Config{})
	taker := dialT(t, addr)
	setter := dialT(t, addr)

	got := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		v, err := taker.BTake("job")
		if err != nil {
			errc <- err
			return
		}
		got <- v
	}()

	// Wait until the taker is genuinely parked, then set remotely.
	waitParked(t, srv.TM(), 1)
	if err := setter.Set("job", []byte("payload")); err != nil {
		t.Fatalf("set: %v", err)
	}
	select {
	case v := <-got:
		if string(v) != "payload" {
			t.Fatalf("btake = %q", v)
		}
	case err := <-errc:
		t.Fatalf("btake: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("btake not woken by remote set")
	}
	// The take consumed the key.
	if _, ok, _ := setter.Get("job"); ok {
		t.Fatal("btake left the key behind")
	}
}

func TestServerWaitWokenByRemoteChange(t *testing.T) {
	srv, addr := startServer(t, Config{})
	waiter := dialT(t, addr)
	setter := dialT(t, addr)
	if err := setter.Set("cfg", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	type res struct {
		v  []byte
		ok bool
	}
	got := make(chan res, 1)
	errc := make(chan error, 1)
	go func() {
		v, ok, err := waiter.Wait("cfg", []byte("v1"), true)
		if err != nil {
			errc <- err
			return
		}
		got <- res{v, ok}
	}()
	waitParked(t, srv.TM(), 1)
	if err := setter.Set("cfg", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if !r.ok || string(r.v) != "v2" {
			t.Fatalf("wait = %q ok=%v", r.v, r.ok)
		}
	case err := <-errc:
		t.Fatalf("wait: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("wait not woken")
	}

	// A Wait whose expectation is already stale answers immediately.
	v, ok, err := waiter.Wait("cfg", []byte("v1"), true)
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("stale wait = %q ok=%v err=%v", v, ok, err)
	}
}

// waitParked blocks until the TM reports at least n parks (the blocking
// layer's own counter — no sleep-and-hope).
func waitParked(t *testing.T, tm *tbtm.TM, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for tm.Stats().Parks < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d parks (stats %+v)", n, tm.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerGracefulShutdownWithParkedClients(t *testing.T) {
	srv, addr := startServer(t, Config{})
	const parked = 3
	errs := make(chan error, parked)
	for i := 0; i < parked; i++ {
		cl := dialT(t, addr)
		go func(cl *Client, i int) {
			_, err := cl.BTake("never:" + strconv.Itoa(i))
			errs <- err
		}(cl, i)
	}
	waitParked(t, srv.TM(), parked)

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("close did not return with parked clients")
	}
	for i := 0; i < parked; i++ {
		select {
		case err := <-errs:
			// The woken client sees the explicit shutdown status; a
			// connection torn down during drain surfaces as an IO error,
			// which is also a clean outcome.
			if err == nil {
				t.Fatal("parked BTake returned a value at shutdown")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("parked client not released by shutdown")
		}
	}
	// New connections are refused or immediately closed.
	if cl, err := Dial(addr); err == nil {
		if err := cl.Ping(); err == nil {
			t.Fatal("ping succeeded after shutdown")
		}
		cl.Close()
	}
}

// TestServerUnixListener covers the non-TCP path: Serve accepts any
// net.Listener, and Close — which has no read-side half-close for a
// unix socket — closes such connections outright after waking their
// parked ops.
func TestServerUnixListener(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tbtmd.sock")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatalf("listen unix: %v", err)
	}
	srv, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })

	c, err := net.Dial("unix", path)
	if err != nil {
		t.Fatalf("dial unix: %v", err)
	}
	cl := NewClient(c)
	defer cl.Close()

	if err := cl.Set("a", []byte("1")); err != nil {
		t.Fatalf("set: %v", err)
	}
	if v, ok, err := cl.Get("a"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("get: %q ok=%v err=%v", v, ok, err)
	}
	res, committed, err := cl.MultiExec([]MultiOp{MGet("a"), MSet("b", []byte("2"))})
	if err != nil || !committed || len(res) != 2 || !res[0].OK || string(res[0].Val) != "1" {
		t.Fatalf("multi: %+v committed=%v err=%v", res, committed, err)
	}

	// One pipelined window: replies in request order, reads see the
	// window's own writes.
	p := cl.Pipe()
	seqs := []uint64{p.Set("c", []byte("3")), p.Get("b"), p.Get("c"), p.Ping()}
	want := []string{"", "2", "3", ""}
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i, seq := range seqs {
		r, err := p.Recv()
		if err != nil || r.Err != nil || r.Seq != seq || string(r.Val) != want[i] {
			t.Fatalf("reply %d = seq %d val %q err %v/%v, want seq %d val %q", i, r.Seq, r.Val, err, r.Err, seq, want[i])
		}
	}

	// A parked BTAKE is woken by Close with the shutdown status; then
	// the connection is closed under the client.
	btake := p.BTake("never-fed")
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	waitParked(t, srv.TM(), 1)
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v on a unix listener", d)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	r, err := p.Recv()
	if err != nil || r.Seq != btake || !errors.Is(r.Err, ErrServerClosed) {
		t.Fatalf("btake at shutdown = seq %d err %v/%v, want seq %d ErrServerClosed", r.Seq, err, r.Err, btake)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after Close = %v, want EOF", err)
	}
}

func TestServerErrorKeepsConnectionUsable(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialT(t, addr)
	// Hand-write a bogus opcode frame (sequence ID, then junk).
	st, p, err := cl.roundTrip(cl.newReq(wire.Op(0xEE)))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if st != wire.StatusError {
		t.Fatalf("status = %d, want wire.StatusError", st)
	}
	if msg, _, _ := wire.TakeBytes(p); !bytes.Contains(msg, []byte("opcode")) {
		t.Fatalf("error message = %q", msg)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after error: %v", err)
	}
}

// TestServerHammer mixes every opcode from many connections. Sizes
// honor -short for the race lane.
func TestServerHammer(t *testing.T) {
	srv, addr := startServer(t, Config{Leases: 4, BlockingLeases: 8})
	conns := 8
	iters := 300
	if testing.Short() {
		conns, iters = 4, 60
	}

	// A feeder keeps the blocking keyspace non-empty so BTAKErs always
	// wake; it stops after the workers are done.
	var stop atomic.Bool
	var feedWG sync.WaitGroup
	feedWG.Add(1)
	go func() {
		defer feedWG.Done()
		cl := dialT(t, addr)
		i := 0
		for !stop.Load() {
			if err := cl.Set("tok:"+strconv.Itoa(i%4), []byte("t")); err != nil {
				return
			}
			i++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < iters; i++ {
				k := "h:" + strconv.Itoa((c*31+i)%64)
				var err error
				switch i % 7 {
				case 0:
					err = cl.Set(k, []byte(strconv.Itoa(i)))
				case 1:
					_, _, err = cl.Get(k)
				case 2:
					_, err = cl.Del(k)
				case 3:
					_, err = cl.Cas(k, []byte("x"), true, []byte("y"))
				case 4:
					_, _, err = cl.MultiExec([]MultiOp{MSet(k, []byte("m")), MGet(k)})
				case 5:
					_, err = cl.Range("h:", "h;", 16)
				case 6:
					_, err = cl.BTake("tok:" + strconv.Itoa(i%4))
				}
				if err != nil {
					errs <- fmt.Errorf("conn %d op %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	stop.Store(true)
	feedWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	st := srv.TM().Stats()
	if st.Commits == 0 {
		t.Fatal("hammer committed nothing")
	}
}

// TestServerBlockingClientDisconnectReclaimsLease pins the disconnect
// monitor: a client that hangs up while parked in BTAKE must have its
// blocking lease reclaimed (not leaked until shutdown), and the watched
// key must NOT be consumed on behalf of the dead client.
func TestServerBlockingClientDisconnectReclaimsLease(t *testing.T) {
	srv, addr := startServer(t, Config{Leases: 2, BlockingLeases: 1})
	cl := dialT(t, addr)
	errc := make(chan error, 1)
	go func() {
		_, err := cl.BTake("gone")
		errc <- err
	}()
	waitParked(t, srv.TM(), 1)
	if got := srv.exec.Metrics().BlockingInUse(); got != 1 {
		t.Fatalf("blocking in use = %d, want 1", got)
	}

	// Hang up mid-park. The monitor commits the cancel flag, the parked
	// transaction wakes with errClientGone, and the lease returns.
	cl.Close()
	deadline := time.Now().Add(30 * time.Second)
	for srv.exec.Metrics().BlockingInUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnected client's blocking lease never reclaimed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-errc; err == nil {
		t.Fatal("BTake on a closed connection returned a value")
	}

	// The dead taker must not have consumed the key.
	cl2 := dialT(t, addr)
	if err := cl2.Set("gone", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl2.Get("gone"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("key consumed by a disconnected taker: %q ok=%v err=%v", v, ok, err)
	}

	// The single blocking lease is usable again.
	if err := cl2.Set("tok", []byte("t")); err != nil {
		t.Fatal(err)
	}
	if v, err := cl2.BTake("tok"); err != nil || string(v) != "t" {
		t.Fatalf("blocking tranche unusable after reclaim: %q err=%v", v, err)
	}
}

// TestServerOversizedReplyBounded pins response-side framing: a RANGE
// whose reply would exceed MaxFrame answers a StatusError frame (with
// guidance) instead of an oversized frame that would desync the client,
// and the connection stays usable.
func TestServerOversizedReplyBounded(t *testing.T) {
	_, addr := startServer(t, Config{MaxFrame: 4096})
	cl := dialT(t, addr)
	val := bytes.Repeat([]byte("x"), 200)
	for i := 0; i < 50; i++ {
		if err := cl.Set(fmt.Sprintf("big:%03d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	_, err := cl.Range("big:", "big;", 0)
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("oversized range = %v, want frame-limit error", err)
	}
	// Connection still in sync: a bounded range and a ping work.
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after bounded reply: %v", err)
	}
	pairs, err := cl.Range("big:", "big;", 5)
	if err != nil || len(pairs) != 5 {
		t.Fatalf("limited range = %v pairs err=%v", pairs, err)
	}
}
