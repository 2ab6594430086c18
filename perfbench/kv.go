package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tbtm/internal/telemetry"
	"tbtm/server"
	"tbtm/server/wire"
)

// Values are valLen bytes, "<key>|<writer>|<seq>|" padded with '.', so
// a read can be checked against what was written for its key: writer
// 'p' is the preload (seq 0), writers '0'.. are the workload's
// connections, each numbering its writes from 1.
const (
	valLen     = 64
	preloadW   = -1
	preloadWin = 256
)

func makeVal(buf []byte, key string, writer int, seq uint64) []byte {
	buf = append(buf[:0], key...)
	buf = append(buf, '|')
	if writer == preloadW {
		buf = append(buf, 'p')
	} else {
		buf = strconv.AppendInt(buf, int64(writer), 10)
	}
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, seq, 10)
	buf = append(buf, '|')
	for len(buf) < valLen {
		buf = append(buf, '.')
	}
	return buf
}

// parseVal splits a value into its writer and seq if it was written
// for key.
func parseVal(key string, v []byte) (writer int, seq uint64, ok bool) {
	if len(v) != valLen || !bytes.HasPrefix(v, []byte(key)) || len(v) <= len(key) || v[len(key)] != '|' {
		return 0, 0, false
	}
	rest := v[len(key)+1:]
	i := bytes.IndexByte(rest, '|')
	if i <= 0 {
		return 0, 0, false
	}
	if string(rest[:i]) == "p" {
		writer = preloadW
	} else if w, err := strconv.Atoi(string(rest[:i])); err == nil && w >= 0 {
		writer = w
	} else {
		return 0, 0, false
	}
	rest = rest[i+1:]
	j := bytes.IndexByte(rest, '|')
	if j <= 0 {
		return 0, 0, false
	}
	seq, err := strconv.ParseUint(string(rest[:j]), 10, 64)
	if err != nil || (writer == preloadW) != (seq == 0) {
		return 0, 0, false
	}
	return writer, seq, true
}

// checkGet is the output check on every GET: the value must have been
// written for that key, by the preload or by a write already issued.
func checkGet(key string, v []byte, found bool, issued []atomic.Uint64) error {
	if !found {
		return fmt.Errorf("GET %s: not found, but every key is preloaded", key)
	}
	w, seq, ok := parseVal(key, v)
	if !ok {
		return fmt.Errorf("GET %s returned %q, not a value written for that key", key, v)
	}
	if w != preloadW && (w >= len(issued) || seq > issued[w].Load()) {
		return fmt.Errorf("GET %s returned %q, which was never written", key, v)
	}
	return nil
}

// ackRec is a writer's last acknowledged write to one key.
type ackRec struct {
	seq            uint64
	issueNs, ackNs int64
}

// checkDurable checks a reopened store: every key must hold its last
// acknowledged value or one acknowledged after it. A key holding writer
// w's write fails if w acknowledged a later write to it, or if another
// writer's acknowledged write to it was issued after that one's ack.
func checkDurable(keys []string, got map[string][]byte, acked [][]ackRec) []string {
	var bad []string
	for k, key := range keys {
		v, ok := got[key]
		if !ok {
			bad = append(bad, fmt.Sprintf("key %s missing after reopen", key))
			continue
		}
		w, seq, ok := parseVal(key, v)
		if !ok || w >= len(acked) {
			bad = append(bad, fmt.Sprintf("key %s holds %q after reopen, not a value written for it", key, v))
			continue
		}
		heldAck := int64(math.MinInt64) // the preload was acknowledged before every write
		if w != preloadW {
			last := acked[w][k]
			if seq < last.seq {
				bad = append(bad, fmt.Sprintf("key %s holds writer %d's write %d after reopen; its write %d was acknowledged later", key, w, seq, last.seq))
				continue
			}
			heldAck = math.MaxInt64 // a newer, unacknowledged write
			if seq == last.seq {
				heldAck = last.ackNs
			}
		}
		for w2 := range acked {
			if r := acked[w2][k]; w2 != w && r.seq > 0 && r.issueNs > heldAck {
				bad = append(bad, fmt.Sprintf("key %s lost writer %d's acknowledged write %d after reopen", key, w2, r.seq))
				break
			}
		}
	}
	return bad
}

// served is one in-process tbtmd on a loopback listener.
type served struct {
	srv  *server.Server
	addr string
	done chan struct{}
}

func serve(cfg server.Config) (*served, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &served{srv: srv, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = srv.Serve(ln) // returns when Close shuts the listener
	}()
	return s, nil
}

func (s *served) close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// kvShape is one kv workload's key space and MULTI script.
type kvShape struct {
	keys      int
	zipf      bool // Zipf s=1.1 over the keys; uniform otherwise
	multiGets int  // a MULTI is multiGets GETs then multiSets SETs
	multiSets int
}

// connRole is one connection's traffic: the rest of get+set is MULTI.
type connRole struct {
	replica  bool // talks to the replica instead of the primary
	depth    int  // 1 = synchronous Client, else a Pipe window this deep
	get, set float64
	peer     int  // the connection whose probe writes its GETs poll; -1 none
	posts    bool // some connection polls this one's probe writes
}

// conn is one benchmark connection with its own wire sequence count
// (the server echoes it; spans use it as the request id).
type conn struct {
	c   *server.Client
	p   *server.Pipe
	seq uint64
}

func dial(addr string, pipelined bool) (*conn, error) {
	c, err := server.DialTimeout(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cn := &conn{c: c}
	if pipelined {
		cn.p = c.Pipe()
	}
	return cn, nil
}

// serverConnID finds the server-side connection id of cn from the
// flight recorder: it sends one GET while the connection is the only
// one talking and takes the newest GET envelope.
func (cn *conn) serverConnID(key string, rec *telemetry.Recorder) (uint32, error) {
	cn.seq++
	if _, _, err := cn.c.Get(key); err != nil {
		return 0, err
	}
	var id uint32
	var newest int64 = -1
	for _, ev := range rec.Snapshot(0) {
		if ev.Kind == telemetry.EvOp && wire.Op(ev.Op) == wire.OpGet && ev.Seq == cn.seq && ev.TS > newest {
			id, newest = ev.Conn, ev.TS
		}
	}
	return id, nil
}

// kvRun is the state one kv workload shares across its connections.
type kvRun struct {
	shape kvShape
	roles []connRole
	keys  []string // workload keys, then one probe key per connection
	// base is the clock origin of acknowledgement times and spans; win
	// is the timed window (nil during set-up).
	base time.Time
	win  *window
	// issued[w] is the highest seq writer w has sent.
	issued []atomic.Uint64
	// acked[w][k] is writer w's last acknowledged write to key k.
	acked [][]ackRec
	// probes[w] carries writer w's last acknowledged probe write to the
	// connection that reads it, for the visibility-lag metric.
	probes []probeSlot
	// userBytes counts key+value bytes of acknowledged writes.
	userBytes atomic.Uint64
}

type probeSlot struct {
	mu      sync.Mutex
	pending bool
	seq     uint64
	ackNs   int64
}

func (s *probeSlot) post(seq uint64, ackNs int64) {
	s.mu.Lock()
	s.pending, s.seq, s.ackNs = true, seq, ackNs
	s.mu.Unlock()
}

func (s *probeSlot) peek() (seq uint64, ackNs int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq, s.ackNs, s.pending
}

func (s *probeSlot) clear() {
	s.mu.Lock()
	s.pending = false
	s.mu.Unlock()
}

func newKVRun(shape kvShape, roles []connRole) *kvRun {
	conns := len(roles)
	r := &kvRun{shape: shape, roles: roles, base: time.Now(), issued: make([]atomic.Uint64, conns), probes: make([]probeSlot, conns)}
	for i := 0; i < shape.keys; i++ {
		r.keys = append(r.keys, fmt.Sprintf("k%07d", i))
	}
	for i := 0; i < conns; i++ {
		r.keys = append(r.keys, fmt.Sprintf("probe-%d", i))
	}
	r.acked = make([][]ackRec, conns)
	for i := range r.acked {
		r.acked[i] = make([]ackRec, len(r.keys))
	}
	return r
}

func (r *kvRun) probeKey(writer int) int { return r.shape.keys + writer }

// preload writes the preload value of every key through one pipelined
// connection.
func preload(addr string, keys []string) error {
	cn, err := dial(addr, true)
	if err != nil {
		return err
	}
	defer cn.c.Close()
	var buf []byte
	for i := 0; i < len(keys); i += preloadWin {
		end := min(i+preloadWin, len(keys))
		for _, key := range keys[i:end] {
			buf = makeVal(buf, key, preloadW, 0)
			cn.p.Set(key, buf)
		}
		for range keys[i:end] {
			rep, err := cn.p.Recv()
			if err != nil {
				return err
			}
			if rep.Err != nil {
				return fmt.Errorf("preload SET: %w", rep.Err)
			}
		}
	}
	return nil
}

// kvOp is one generated request: a GET or SET of keys[0], or a MULTI
// over multiGets+multiSets keys.
type kvOp struct {
	op   wire.Op
	keys [4]int
}

func (r *kvRun) gen(seed uint64, conn int) func() kvOp {
	role := r.roles[conn]
	rng := rand.New(rand.NewPCG(seed, uint64(conn)))
	pick := func() int { return rng.IntN(r.shape.keys) }
	if r.shape.zipf {
		z := rand.NewZipf(rng, 1.1, 1, uint64(r.shape.keys-1))
		pick = func() int { return int(z.Uint64()) }
	}
	return func() kvOp {
		var op kvOp
		switch x := rng.Float64(); {
		case x < role.get:
			op.op = wire.OpGet
		case x < role.get+role.set:
			op.op = wire.OpSet
		default:
			op.op = wire.OpMulti
		}
		for i := range op.keys {
			op.keys[i] = pick()
		}
		return op
	}
}

// connLoop is one closed-loop connection. writer is this connection's
// writer id; peer is the writer whose probe writes its GETs poll (-1:
// none); posts says whether some reader polls this connection's probe
// writes. w is nil during warm-up.
type connLoop struct {
	r      *kvRun
	cn     *conn
	writer int
	peer   int
	posts  bool
	next   func() kvOp
	w      *worker

	buf []byte
	// probeOut is set while a probe write of ours is issued and not yet
	// read by the peer; probeAcked once it was acknowledged and posted.
	probeOut, probeAcked bool
	multi                []server.MultiOp
	multiVals            [][]byte
}

// ticket is one issued request awaiting its reply.
type ticket struct {
	op      wire.Op
	seq     uint64
	key     int
	keys    [4]int
	wseqs   [4]uint64 // writer seqs of the SETs it carries
	probe   bool      // a GET polling the peer's probe key
	probeW  bool      // a SET of our probe key
	traced  bool
	issueAt time.Time
}

func newConnLoop(r *kvRun, cn *conn, i int, next func() kvOp, w *worker) *connLoop {
	l := &connLoop{r: r, cn: cn, writer: i, peer: r.roles[i].peer, posts: r.roles[i].posts, next: next, w: w}
	l.multi = make([]server.MultiOp, r.shape.multiGets+r.shape.multiSets)
	l.multiVals = make([][]byte, len(l.multi))
	return l
}

// nextTicket draws the next op and turns it into a request ticket,
// redirecting a GET to the peer's pending probe and a SET to our own
// probe key when none of ours is outstanding.
func (l *connLoop) nextTicket() ticket {
	op := l.next()
	t := ticket{op: op.op, keys: op.keys, key: op.keys[0]}
	switch op.op {
	case wire.OpGet:
		if l.peer >= 0 {
			if _, _, ok := l.r.probes[l.peer].peek(); ok {
				t.key, t.probe = l.r.probeKey(l.peer), true
			}
		}
	case wire.OpSet:
		if l.posts && !l.probeOut {
			t.key, t.probeW, l.probeOut = l.r.probeKey(l.writer), true, true
		}
		t.wseqs[0] = l.r.issued[l.writer].Add(1)
	case wire.OpMulti:
		for i := 0; i < l.r.shape.multiSets; i++ {
			t.wseqs[i] = l.r.issued[l.writer].Add(1)
		}
	}
	return t
}

// enqueue writes t into the pipelined connection's send buffer.
func (l *connLoop) enqueue(t *ticket) error {
	keys := l.r.keys
	switch t.op {
	case wire.OpGet:
		t.seq = l.cn.p.Get(keys[t.key])
	case wire.OpSet:
		l.buf = makeVal(l.buf, keys[t.key], l.writer, t.wseqs[0])
		t.seq = l.cn.p.Set(keys[t.key], l.buf)
	case wire.OpMulti:
		seq, err := l.cn.p.Multi(l.multiOps(t))
		if err != nil {
			return err
		}
		t.seq = seq
	}
	return nil
}

func (l *connLoop) multiOps(t *ticket) []server.MultiOp {
	g := l.r.shape.multiGets
	for i := range l.multi {
		key := l.r.keys[t.keys[i]]
		if i < g {
			l.multi[i] = server.MGet(key)
			continue
		}
		l.multiVals[i] = makeVal(l.multiVals[i], key, l.writer, t.wseqs[i-g])
		l.multi[i] = server.MSet(key, l.multiVals[i])
	}
	return l.multi
}

// call runs t synchronously and hands its reply to complete.
func (l *connLoop) call(t *ticket) {
	l.cn.seq++
	t.seq = l.cn.seq
	key := l.r.keys[t.key]
	var err error
	var val []byte
	found := true
	switch t.op {
	case wire.OpGet:
		val, found, err = l.cn.c.Get(key)
	case wire.OpSet:
		l.buf = makeVal(l.buf, key, l.writer, t.wseqs[0])
		err = l.cn.c.Set(key, l.buf)
	case wire.OpMulti:
		var res []server.MultiResult
		var committed bool
		res, committed, err = l.cn.c.MultiExec(l.multiOps(t))
		if err == nil && !committed {
			err = fmt.Errorf("MULTI did not commit")
		}
		for i := 0; err == nil && i < l.r.shape.multiGets; i++ {
			err = checkGet(l.r.keys[t.keys[i]], res[i].Val, res[i].OK, l.r.issued)
		}
	}
	l.complete(t, val, found, err, time.Now())
}

// complete records one reply: output checks, acknowledgements, probe
// bookkeeping, latency and span.
func (l *connLoop) complete(t *ticket, val []byte, found bool, err error, at time.Time) {
	w, r := l.w, l.r
	if err == nil && t.op == wire.OpGet {
		err = checkGet(r.keys[t.key], val, found, r.issued)
	}
	if err != nil {
		if w != nil {
			w.failed.Add(1)
			w.problem("%s %s: %v", t.op, r.keys[t.key], err)
		}
		l.probeOut = l.probeOut && !t.probeW
		return
	}
	ackNs := at.Sub(r.base).Nanoseconds()
	issueNs := t.issueAt.Sub(r.base).Nanoseconds()
	switch t.op {
	case wire.OpSet:
		r.acked[l.writer][t.key] = ackRec{seq: t.wseqs[0], issueNs: issueNs, ackNs: ackNs}
		r.userBytes.Add(uint64(len(r.keys[t.key]) + valLen))
		if t.probeW {
			r.probes[l.writer].post(t.wseqs[0], ackNs)
			l.probeAcked = true
		}
	case wire.OpMulti:
		for i := 0; i < r.shape.multiSets; i++ {
			k := t.keys[r.shape.multiGets+i]
			r.acked[l.writer][k] = ackRec{seq: t.wseqs[i], issueNs: issueNs, ackNs: ackNs}
			r.userBytes.Add(uint64(len(r.keys[k]) + valLen))
		}
	case wire.OpGet:
		if t.probe {
			if seq, posted, ok := r.probes[l.peer].peek(); ok {
				if _, got, _ := parseVal(r.keys[t.key], val); got >= seq {
					r.probes[l.peer].clear()
					if w != nil {
						w.lag.observe(ackNs - posted)
					}
				}
			}
		}
	}
	if w == nil {
		return
	}
	d := at.Sub(t.issueAt).Nanoseconds()
	switch t.op {
	case wire.OpGet:
		w.read.observe(d)
		w.long++
	case wire.OpSet:
		w.write.observe(d)
	case wire.OpMulti:
		w.multi.observe(d)
	}
	if t.traced {
		w.done[1].Add(1)
		w.spans = append(w.spans, span{name: opName(t.op), client: l.writer, seq: t.seq,
			start: issueNs, end: ackNs})
	} else {
		w.done[0].Add(1)
	}
}

func opName(op wire.Op) string {
	switch op {
	case wire.OpGet:
		return "get"
	case wire.OpSet:
		return "set"
	}
	return "multi"
}

// refreshProbe lets a new probe write go out once the reader consumed
// the previous one.
func (l *connLoop) refreshProbe() {
	if l.probeAcked {
		if _, _, pending := l.r.probes[l.writer].peek(); !pending {
			l.probeOut, l.probeAcked = false, false
		}
	}
}

// run drives the connection: limit ops when limit > 0 (warm-up),
// otherwise until the window ends.
func (l *connLoop) run(limit int) error {
	depth := l.r.roles[l.writer].depth
	tickets := make([]ticket, depth)
	for n := 0; limit <= 0 || n < limit; n += depth {
		now := time.Now()
		if limit <= 0 && l.r.win.over(now) {
			return nil
		}
		traced := limit <= 0 && l.r.win.traced.Load()
		l.refreshProbe()
		if depth == 1 {
			t := l.nextTicket()
			t.traced, t.issueAt = traced, now
			l.account(1)
			l.call(&t)
			l.account(-1)
			continue
		}
		for i := range tickets {
			tickets[i] = l.nextTicket()
			tickets[i].traced = traced
			tickets[i].issueAt = time.Now()
			if err := l.enqueue(&tickets[i]); err != nil {
				return err
			}
		}
		l.account(int64(depth))
		if err := l.cn.p.Flush(); err != nil {
			return err
		}
		for i := range tickets {
			rep, err := l.cn.p.Recv()
			at := time.Now()
			if err != nil {
				return err
			}
			if rep.Seq != tickets[i].seq {
				return fmt.Errorf("reply for seq %d, want %d", rep.Seq, tickets[i].seq)
			}
			err = rep.Err
			if err == nil && !rep.OK && rep.Op != wire.OpGet {
				err = fmt.Errorf("%s not acknowledged", rep.Op)
			}
			found := rep.Op != wire.OpGet || rep.OK
			l.complete(&tickets[i], rep.Val, found, err, at)
			l.account(-1)
		}
	}
	return nil
}

func (l *connLoop) account(d int64) {
	if l.w == nil {
		return
	}
	if d > 0 {
		l.w.attempted.Add(uint64(d))
	}
	l.w.inflight.Add(d)
}
