// Package transport is the server's connection I/O layer: pipelined
// greedy decode, server-side batching, a coalescing response writer,
// and the connection driver (Serve: one reader goroutine per
// connection, with the Go runtime's netpoller as the event loop). It
// drives any engine.KV through an engine.Executor and calls back into
// its Host — the server's composition root — for everything above the
// connection: lifecycle registration, stats documents, and replication
// streams.
//
// PR5 served one request at a time per connection: read one frame,
// lease a Thread, run one transaction, write one response, flush — four
// syscalls and one lease cycle per wire op, which is why BENCH_PR5
// measured a 35x gap between wire throughput and in-process commits.
// The Conn closes that gap structurally:
//
//   - requests are decoded GREEDILY from each readable burst: every
//     complete frame in the buffer is parsed before any response is
//     flushed, so k pipelined requests cost one read;
//
//   - consecutive non-blocking single-key ops (GET/SET/DEL/CAS) are
//     accumulated and executed under ONE fast-tranche lease as ONE
//     transaction (KV.ExecBatch) — reads see the batch's earlier
//     writes, each op gets its own status, a failed CAS is a per-op
//     result rather than an abort, and a batch that fails with a
//     genuine error re-runs its ops individually so the first error
//     does not poison later independent ops;
//
//   - responses are appended to a coalescing write buffer and flushed
//     once per burst, so k responses cost one write.
//
// Non-blocking responses are written in request order. Blocking ops
// (BTAKE/WAIT) leave the fast path entirely: they are dispatched to a
// dedicated goroutine holding a blocking-tranche lease, later requests
// on the connection keep flowing, and the blocking response is written
// whenever the op completes — matched by its echoed sequence ID, the
// one place the protocol is out of order by design. OpReplicate
// likewise moves to its own goroutine, which streams frames through the
// same frame-granular write buffer for as long as the connection lives.
package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tbtm"
	"tbtm/internal/telemetry"
	"tbtm/server/engine"
	"tbtm/server/wire"
)

// Config bounds one connection's resource use.
type Config struct {
	// MaxFrame bounds request and response payloads.
	MaxFrame int
	// MaxBatch caps how many consecutive non-blocking single-key ops
	// from one pipelined burst share a lease and commit window.
	MaxBatch int
	// Recorder is the host's flight recorder (nil disables tracing).
	// Each connection borrows a pooled ring for its lifetime.
	Recorder *telemetry.Recorder
}

// Host is what the transport needs from the server around it. The
// composition root implements it; the transport never imports the
// server package.
type Host interface {
	// Closed reports server shutdown; new requests answer StatusClosed.
	Closed() bool
	// InflightAdd tracks requests between decode and response write (the
	// graceful-shutdown drain counts them).
	InflightAdd(delta int64)
	// NewCancelVar allocates a connection's transactional hang-up flag.
	NewCancelVar() *tbtm.Var[bool]
	// CancelBlocked commits a hang-up flag, waking the connection's
	// parked blocking ops.
	CancelBlocked(v *tbtm.Var[bool])
	// StatsJSON renders the OpStats reply document.
	StatsJSON() ([]byte, error)
	// ConnDone deregisters a torn-down connection (the counterpart of
	// whatever registration the host did before attaching it).
	ConnDone(cn *Conn)
	// Replicate serves one OpReplicate stream until the stream stops or
	// fails; the returned error (mapped through the usual status rules)
	// becomes the stream's terminal frame. Hosts without a WAL return a
	// plain error.
	Replicate(st *Stream, afterSeq uint64) error
	// TraceJSON dumps the host's flight recorder (at most max events, 0
	// for the host default) as one JSON document — the OpTrace reply.
	TraceJSON(max int) ([]byte, error)
}

// keyCacheSlots sizes the per-connection direct-mapped key-string
// cache (a power of two). PR5's single entry was enough for one-op-at-
// a-time clients; a pipelined burst touches several keys, so the cache
// holds a small working set and converts wire bytes to the store's
// string key once per key, not once per request.
const keyCacheSlots = 8

type keyCacheEntry struct {
	raw []byte // private copy of the key bytes (the frame buffer is reused)
	str string
}

// keySlot hashes key bytes to a cache slot (FNV-1a, truncated).
//
//tbtm:noalloc
func keySlot(b []byte) int {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h & (keyCacheSlots - 1))
}

// Conn is the per-connection state: the read accumulation buffer the
// decoder aliases into, the pending batch, the coalescing write buffer,
// and every scratch buffer the request cycle needs — allocated once per
// connection so the warm pipelined path allocates nothing.
type Conn struct {
	host Host
	cfg  Config
	exec *engine.Executor
	kv   engine.KV
	c    net.Conn
	w    io.Writer // response sink; cn.c except in decode-level tests

	in    []byte       // read accumulation buffer; frames are decoded in place
	inoff int          // consumed prefix of in
	req   wire.Request // decoded request (aliases in)
	resp  []byte       // response body scratch (reader-owned)

	// Coalescing response writer. Frames are appended under wmu —
	// whole frames only, so blocking completions and replication stream
	// chunks interleave at frame granularity — and written with one
	// Write per flush.
	wmu  sync.Mutex
	wbuf []byte

	// Pending batch: decoded non-blocking single-key ops awaiting one
	// shared lease/commit window, with their sequence IDs.
	batch     []engine.MultiSub
	batchSeqs []uint64
	results   []engine.SubResult
	msubs     []engine.MultiSub // solo MULTI scratch

	keys [keyCacheSlots]keyCacheEntry

	// Blocking-op state: cancel is the connection's transactional
	// hang-up flag (committing it wakes every parked BTAKE/WAIT of this
	// connection), blockingOut counts dispatched-but-unanswered
	// blocking ops.
	cancel      *tbtm.Var[bool]
	blockingOut atomic.Int64

	// replStop ends this connection's replication streams at teardown.
	replStop chan struct{}

	// Prebound closures for the lease-holding paths, built once per
	// connection so serving allocates neither a closure nor captured
	// variables per request. oneIdx selects the batch entry oneFn runs.
	oneIdx    int
	oneRes    engine.SubResult
	oneFn     func(*tbtm.Thread) error
	batchFn   func(*tbtm.Thread) error
	batchROFn func(*tbtm.Thread) error

	// Flight-recorder state. ring is the event sink (a pooled ring held
	// for the connection's lifetime); id tags this connection's events.
	// evOp/evSeq/evT0 carry the in-flight op's envelope — set before
	// the executor call so the prebound closures (which cannot take
	// parameters) can see them.
	ring  *telemetry.Ring
	id    uint32
	evOp  uint8
	evSeq uint64
	evT0  int64

	down sync.Once
}

// connIDSeq issues recorder-scoped connection IDs (trace correlation
// only; not the host's connection registry).
var connIDSeq atomic.Uint32

// NewConn builds the per-connection state over c. The host must have
// registered the connection already (ConnDone undoes that exactly
// once).
func NewConn(host Host, cfg Config, exec *engine.Executor, kv engine.KV, c net.Conn) *Conn {
	cn := &Conn{host: host, cfg: cfg, exec: exec, kv: kv, c: c, w: c,
		replStop: make(chan struct{}), id: connIDSeq.Add(1)}
	// The closures run under the lease: everything before them was
	// lease-wait, everything inside them is engine execution. Begins()
	// deltas count transactions started, so Aux-1 on the EvExec event is
	// the op's conflict-retry count. Every trace call is nil-safe and a
	// few atomic loads when the recorder is disarmed.
	cn.oneFn = func(th *tbtm.Thread) error {
		t := cn.ring.Span(telemetry.EvLeaseWait, cn.evOp, cn.id, cn.evSeq, 0, cn.evT0)
		th.AttachTrace(cn.ring, cn.id, cn.evSeq)
		b0 := th.Begins()
		res, err := kv.ExecOne(th, &cn.batch[cn.oneIdx])
		cn.ring.Span(telemetry.EvExec, cn.evOp, cn.id, cn.evSeq, uint32(th.Begins()-b0), t)
		if err != nil {
			return err
		}
		cn.oneRes = res
		return nil
	}
	cn.batchFn = func(th *tbtm.Thread) error {
		t := cn.ring.Span(telemetry.EvLeaseWait, cn.evOp, cn.id, cn.evSeq, 0, cn.evT0)
		th.AttachTrace(cn.ring, cn.id, cn.evSeq)
		b0 := th.Begins()
		err := kv.ExecBatch(th, cn.batch, &cn.results)
		cn.ring.Span(telemetry.EvExec, cn.evOp, cn.id, cn.evSeq, uint32(th.Begins()-b0), t)
		return err
	}
	cn.batchROFn = func(th *tbtm.Thread) error {
		t := cn.ring.Span(telemetry.EvLeaseWait, cn.evOp, cn.id, cn.evSeq, 0, cn.evT0)
		th.AttachTrace(cn.ring, cn.id, cn.evSeq)
		b0 := th.Begins()
		err := kv.ExecBatchRO(th, cn.batch, &cn.results)
		cn.ring.Span(telemetry.EvExec, cn.evOp, cn.id, cn.evSeq, uint32(th.Begins()-b0), t)
		return err
	}
	return cn
}

// NetConn returns the underlying connection (the host keys its open-
// connection registry by it and shuts its read side at Close).
func (cn *Conn) NetConn() net.Conn { return cn.c }

// keyString converts a wire key to the store's string key through the
// connection's direct-mapped cache.
//
//tbtm:allocok
func (cn *Conn) keyString(b []byte) string {
	e := &cn.keys[keySlot(b)]
	if e.str != "" && bytes.Equal(b, e.raw) {
		return e.str
	}
	e.raw = append(e.raw[:0], b...)
	e.str = string(b)
	return e.str
}

// grow ensures at least n spare bytes in the read buffer.
//
//tbtm:allocok
func (cn *Conn) grow(n int) {
	if cap(cn.in)-len(cn.in) >= n {
		return
	}
	// Compact first: consumed prefix is dead weight.
	cn.compact()
	if cap(cn.in)-len(cn.in) >= n {
		return
	}
	newCap := 2 * cap(cn.in)
	if newCap < 4096 {
		newCap = 4096
	}
	for newCap-len(cn.in) < n {
		newCap *= 2
	}
	in := make([]byte, len(cn.in), newCap)
	copy(in, cn.in)
	cn.in = in
}

// compact drops the consumed prefix, moving any partial frame to the
// front of the buffer.
//
//tbtm:noalloc
func (cn *Conn) compact() {
	if cn.inoff == 0 {
		return
	}
	n := copy(cn.in, cn.in[cn.inoff:])
	cn.in = cn.in[:n]
	cn.inoff = 0
}

// processBurst decodes every complete frame buffered in cn.in,
// executes batches and solo ops, queues their responses, and flushes
// the wire once. A non-nil return tears the connection down. Decoded
// requests alias cn.in, which is stable until compact() at the end —
// batch execution therefore always happens inside the burst.
func (cn *Conn) processBurst() error {
	t0 := cn.ring.Now()
	frames := uint32(0)
	firstSeq := uint64(0)
	for {
		rest := cn.in[cn.inoff:]
		if len(rest) < 4 {
			break
		}
		n := int(binary.BigEndian.Uint32(rest))
		if n > cn.cfg.MaxFrame {
			return wire.ErrFrameTooLarge
		}
		if len(rest) < 4+n {
			// Partial frame: make room for the remainder, wait for more.
			cn.grow(4 + n - len(rest))
			break
		}
		payload := rest[4 : 4+n]
		cn.inoff += 4 + n

		seq, body, err := wire.TakeUvarint(payload)
		if err != nil {
			return err // cannot even attribute a response; desynced
		}
		if frames == 0 {
			firstSeq = seq
		}
		frames++
		if err := cn.dispatch(seq, body); err != nil {
			return err
		}
	}
	// The decode span covers the burst's frame-scan loop. Batchable ops
	// only accumulate there, so for pipelined GET/SET bursts this is
	// pure decode cost; bursts carrying solo or blocking ops fold their
	// inline dispatch in too.
	if frames > 0 {
		cn.ring.Span(telemetry.EvDecode, 0, cn.id, firstSeq, frames, t0)
	}
	if err := cn.flushBatch(); err != nil {
		return err
	}
	cn.compact()
	ft := cn.ring.Now()
	err := cn.flushWire()
	if frames > 0 {
		cn.ring.Span(telemetry.EvFlush, 0, cn.id, firstSeq, 0, ft)
	}
	return err
}

// dispatch routes one decoded request. Batchable ops accumulate; every
// other class first flushes the pending batch so non-blocking
// responses stay in request order.
func (cn *Conn) dispatch(seq uint64, body []byte) error {
	if err := wire.ParseRequest(body, &cn.req); err != nil {
		if ferr := cn.flushBatch(); ferr != nil {
			return ferr
		}
		b := cn.beginResp(seq)
		b = append(b, byte(wire.StatusError))
		b = wire.AppendString(b, err.Error())
		cn.queueResp(b)
		return nil
	}
	if cn.host.Closed() {
		if ferr := cn.flushBatch(); ferr != nil {
			return ferr
		}
		cn.queueResp(append(cn.beginResp(seq), byte(wire.StatusClosed)))
		return nil
	}
	switch cn.req.Op {
	case wire.OpGet, wire.OpSet, wire.OpDel, wire.OpCas:
		cn.appendBatch(seq, &cn.req.SubReq)
		if len(cn.batch) >= cn.cfg.MaxBatch {
			return cn.flushBatch()
		}
		return nil
	case wire.OpPing:
		if err := cn.flushBatch(); err != nil {
			return err
		}
		cn.queueResp(append(cn.beginResp(seq), byte(wire.StatusOK)))
		return nil
	case wire.OpBTake, wire.OpWait:
		if err := cn.flushBatch(); err != nil {
			return err
		}
		cn.dispatchBlocking(seq)
		return nil
	case wire.OpReplicate:
		if err := cn.flushBatch(); err != nil {
			return err
		}
		cn.dispatchReplicate(seq)
		return nil
	case wire.OpRange, wire.OpMulti, wire.OpStats, wire.OpTrace:
		if err := cn.flushBatch(); err != nil {
			return err
		}
		return cn.execSolo(seq)
	default:
		if err := cn.flushBatch(); err != nil {
			return err
		}
		b := cn.beginResp(seq)
		b = append(b, byte(wire.StatusError))
		b = wire.AppendString(b, fmt.Sprintf("server: unknown opcode %d", cn.req.Op))
		cn.queueResp(b)
		return nil
	}
}

// appendBatch materializes one single-key op into the pending batch:
// string key through the cache, a private copy of the stored value
// (it outlives the frame buffer), expect aliasing the frame buffer
// (only compared inside the attempt, and the batch executes before the
// buffer is compacted).
func (cn *Conn) appendBatch(seq uint64, sub *wire.SubReq) {
	m := engine.MultiSub{
		Op:            sub.Op,
		Key:           cn.keyString(sub.Key),
		Expect:        sub.Expect,
		ExpectPresent: sub.ExpectPresent,
	}
	if sub.Op == wire.OpSet || sub.Op == wire.OpCas {
		m.Val = engine.CopyBytes(sub.Val)
	}
	cn.batch = append(cn.batch, m)
	cn.batchSeqs = append(cn.batchSeqs, seq)
}

// flushBatch executes the pending batch — one lease and one commit
// window for k >= 2 ops, the plain single-op path for k == 1 — and
// queues the per-op responses in request order.
func (cn *Conn) flushBatch() error {
	n := len(cn.batch)
	if n == 0 {
		return nil
	}
	cn.host.InflightAdd(1)
	defer cn.host.InflightAdd(-1)

	cn.evOp = uint8(cn.batch[0].Op)
	cn.evSeq = cn.batchSeqs[0]
	cn.evT0 = cn.ring.Now()

	var err error
	if n == 1 {
		cn.oneIdx = 0
		err = cn.exec.Do(nil, cn.batch[0].Op, false, cn.oneFn)
		if err == nil {
			cn.results = append(cn.results[:0], cn.oneRes)
		}
	} else {
		ro := true
		for i := range cn.batch {
			if cn.batch[i].Op != wire.OpGet {
				ro = false
				break
			}
		}
		fn := cn.batchFn
		if ro {
			fn = cn.batchROFn
		}
		var d time.Duration
		d, err = cn.exec.DoBatch(nil, n, fn)
		if err == nil {
			// Attribute amortized latency to the constituent opcodes so
			// per-op counters keep reflecting wire traffic.
			per := d / time.Duration(n)
			m := cn.exec.Metrics()
			for i := range cn.batch {
				m.RecordOp(cn.batch[i].Op, per, nil)
			}
		}
	}

	if err != nil {
		cn.rerunSolo(err)
	} else {
		for i := range cn.batch {
			b := cn.beginResp(cn.batchSeqs[i])
			b = appendSubResp(b, cn.batch[i].Op, &cn.results[i])
			cn.queueResp(b)
		}
	}
	// The envelope event for the whole batch (Aux = op count) — also
	// the slow-op checkpoint.
	cn.ring.Op(cn.evOp, cn.id, cn.evSeq, uint32(n), cn.evT0)
	cn.batch = cn.batch[:0]
	cn.batchSeqs = cn.batchSeqs[:0]
	return nil
}

// rerunSolo is the batch-abort policy: the shared window failed with a
// genuine error (engine error, executor shutdown), so each op re-runs
// in its own transaction and answers its own outcome — the first error
// does not poison later independent ops. Shutdown errors short-circuit:
// every op answers StatusClosed without touching the engine again.
func (cn *Conn) rerunSolo(batchErr error) {
	closed := errors.Is(batchErr, engine.ErrServerClosed) || errors.Is(batchErr, engine.ErrExecutorClosed)
	for i := range cn.batch {
		b := cn.beginResp(cn.batchSeqs[i])
		if closed {
			b = append(b, byte(wire.StatusClosed))
			cn.queueResp(b)
			continue
		}
		cn.oneIdx = i
		err := cn.exec.Do(nil, cn.batch[i].Op, false, cn.oneFn)
		if err != nil {
			b = appendErrStatus(b, err)
		} else {
			b = appendSubResp(b, cn.batch[i].Op, &cn.oneRes)
		}
		cn.queueResp(b)
	}
}

// appendSubResp encodes one batch entry's wire response body (after the
// sequence ID): the same formats as the top-level single-key ops.
//
//tbtm:noalloc
func appendSubResp(b []byte, op wire.Op, r *engine.SubResult) []byte {
	switch op {
	case wire.OpGet:
		if r.Status == wire.StatusNotFound {
			return append(b, byte(wire.StatusNotFound))
		}
		b = append(b, byte(wire.StatusOK))
		return wire.AppendBytes(b, r.Val)
	case wire.OpSet:
		return append(b, byte(wire.StatusOK))
	case wire.OpDel, wire.OpCas:
		b = append(b, byte(wire.StatusOK))
		return append(b, wire.BoolByte(r.Present))
	}
	return append(b, byte(wire.StatusError)) // unreachable: batch ops are the four above
}

// appendErrStatus encodes a failed op's response head: shutdown maps to
// StatusClosed, read-only refusals to StatusReadOnly plus a reason byte
// (WAL degradation vs replica), everything else to StatusError with the
// message.
func appendErrStatus(b []byte, err error) []byte {
	if errors.Is(err, engine.ErrServerClosed) || errors.Is(err, engine.ErrExecutorClosed) || errors.Is(err, engine.ErrClientGone) {
		return append(b, byte(wire.StatusClosed))
	}
	if errors.Is(err, engine.ErrReadOnly) {
		return append(b, byte(wire.StatusReadOnly), wire.ReadOnlyWAL)
	}
	if errors.Is(err, engine.ErrReplicaRead) {
		return append(b, byte(wire.StatusReadOnly), wire.ReadOnlyReplica)
	}
	b = append(b, byte(wire.StatusError))
	return wire.AppendString(b, err.Error())
}

// execSolo runs the non-batchable non-blocking ops (RANGE, MULTI,
// STATS), with the response queued instead of written directly.
func (cn *Conn) execSolo(seq uint64) error {
	cn.host.InflightAdd(1)
	defer cn.host.InflightAdd(-1)
	req := &cn.req
	cn.evOp = uint8(req.Op)
	cn.evSeq = seq
	cn.evT0 = cn.ring.Now()
	b := cn.beginResp(seq)
	switch req.Op {
	case wire.OpRange:
		var pairs []engine.Pair
		err := cn.exec.Do(nil, wire.OpRange, false, func(th *tbtm.Thread) error {
			th.AttachTrace(cn.ring, cn.id, seq)
			var e error
			pairs, e = cn.kv.RangeScan(th, string(req.From), string(req.To), req.Limit)
			return e
		})
		if err != nil {
			b = appendErrStatus(b, err)
			break
		}
		b = append(b, byte(wire.StatusOK))
		b = binary.AppendUvarint(b, uint64(len(pairs)))
		for _, p := range pairs {
			b = wire.AppendString(b, p.Key)
			b = wire.AppendBytes(b, p.Val)
		}

	case wire.OpMulti:
		cn.msubs = cn.materialize(req.Multi, cn.msubs)
		var committed bool
		err := cn.exec.Do(nil, wire.OpMulti, false, func(th *tbtm.Thread) error {
			th.AttachTrace(cn.ring, cn.id, seq)
			var e error
			committed, e = cn.kv.Multi(th, cn.msubs, &cn.results)
			return e
		})
		if err != nil {
			b = appendErrStatus(b, err)
			break
		}
		b = append(b, byte(wire.StatusOK), wire.BoolByte(committed))
		b = binary.AppendUvarint(b, uint64(len(cn.results)))
		for i := range cn.results {
			r := &cn.results[i]
			b = append(b, byte(r.Status))
			switch req.Multi[i].Op {
			case wire.OpGet:
				if r.Status == wire.StatusOK {
					b = wire.AppendBytes(b, r.Val)
				}
			case wire.OpSet:
			case wire.OpDel, wire.OpCas:
				b = append(b, wire.BoolByte(r.Present))
			}
		}

	case wire.OpStats:
		doc, err := cn.host.StatsJSON()
		if err != nil {
			b = appendErrStatus(b, err)
			break
		}
		b = append(b, byte(wire.StatusOK))
		b = wire.AppendBytes(b, doc)

	case wire.OpTrace:
		max := int(req.TraceMax)
		if req.TraceMax > 1<<30 {
			max = 1 << 30
		}
		doc, err := cn.host.TraceJSON(max)
		if err != nil {
			b = appendErrStatus(b, err)
			break
		}
		b = append(b, byte(wire.StatusOK))
		b = wire.AppendBytes(b, doc)
	}
	cn.queueResp(b)
	cn.ring.Op(cn.evOp, cn.id, seq, 1, cn.evT0)
	return nil
}

// materialize converts parsed MULTI sub-requests into retry-stable
// script entries, keys through the connection's cache, reusing dst.
func (cn *Conn) materialize(subs []wire.SubReq, dst []engine.MultiSub) []engine.MultiSub {
	dst = dst[:0]
	for i := range subs {
		sub := &subs[i]
		m := engine.MultiSub{Op: sub.Op, Key: cn.keyString(sub.Key), Expect: sub.Expect, ExpectPresent: sub.ExpectPresent}
		if sub.Op == wire.OpSet || sub.Op == wire.OpCas {
			m.Val = engine.CopyBytes(sub.Val)
		}
		dst = append(dst, m)
	}
	return dst
}

// dispatchBlocking hands a BTAKE/WAIT to a dedicated goroutine holding
// a blocking-tranche lease. Later requests on this connection keep
// flowing; the response is written out of order when the op completes,
// matched by its sequence ID. The goroutine owns private copies of
// every request field it touches (the frame buffer does not survive
// the burst).
func (cn *Conn) dispatchBlocking(seq uint64) {
	if cn.cancel == nil {
		cn.cancel = cn.host.NewCancelVar()
	}
	op := cn.req.Op
	key := cn.keyString(cn.req.Key)
	expectPresent := cn.req.ExpectPresent
	var old []byte
	if op == wire.OpWait {
		old = engine.CopyBytes(cn.req.Expect)
	}
	cancel := cn.cancel
	cn.blockingOut.Add(1)
	cn.host.InflightAdd(1)
	go func() {
		defer cn.blockingOut.Add(-1)
		defer cn.host.InflightAdd(-1)
		// The ring's mutex makes recording from this goroutine safe.
		// The envelope is recorded as a plain span, NOT through Op():
		// a BTAKE parked for minutes is normal, not a slow op.
		t0 := cn.ring.Now()
		b := binary.AppendUvarint(make([]byte, 0, 64), seq)
		if op == wire.OpBTake {
			var val []byte
			err := cn.exec.Do(nil, wire.OpBTake, true, func(th *tbtm.Thread) error {
				th.AttachTrace(cn.ring, cn.id, seq)
				var e error
				val, e = cn.kv.BTake(th, key, cancel)
				return e
			})
			if err != nil {
				b = appendErrStatus(b, err)
			} else {
				b = append(b, byte(wire.StatusOK))
				b = wire.AppendBytes(b, val)
			}
		} else {
			var val []byte
			var present bool
			err := cn.exec.Do(nil, wire.OpWait, true, func(th *tbtm.Thread) error {
				th.AttachTrace(cn.ring, cn.id, seq)
				var e error
				val, present, e = cn.kv.Wait(th, key, expectPresent, old, cancel)
				return e
			})
			if err != nil {
				b = appendErrStatus(b, err)
			} else {
				b = append(b, byte(wire.StatusOK), wire.BoolByte(present))
				if present {
					b = wire.AppendBytes(b, val)
				}
			}
		}
		cn.ring.Span(telemetry.EvOp, uint8(op), cn.id, seq, 1, t0)
		cn.queueResp(b)
		_ = cn.flushWire() // nobody else will flush for us; errors mean the client is gone
	}()
}

// Stream is one OpReplicate response stream: a frame writer bound to
// the subscribing request's sequence ID, safe to use from the
// replication goroutine while the connection keeps serving other
// requests (frames interleave at frame granularity through the
// coalescing writer).
type Stream struct {
	cn  *Conn
	seq uint64
	buf []byte
}

// Begin starts a stream frame body: the subscription's sequence ID in
// the stream's own scratch buffer. The caller appends the status, kind
// byte and payload, then hands the body to Flush.
func (st *Stream) Begin() []byte {
	return binary.AppendUvarint(st.buf[:0], st.seq)
}

// Flush frames the body and writes it out immediately (a stream frame
// must not sit in the coalescing buffer waiting for reader activity).
// The body must come from Begin.
func (st *Stream) Flush(body []byte) error {
	if len(body) > st.cn.cfg.MaxFrame {
		return wire.ErrFrameTooLarge
	}
	st.buf = body[:0] // retain the grown scratch
	st.cn.queueFrame(body)
	return st.cn.flushWire()
}

// Stop is closed when the connection tears down; the replication
// serving loop selects on it.
func (st *Stream) Stop() <-chan struct{} { return st.cn.replStop }

// dispatchReplicate hands an OpReplicate subscription to a dedicated
// goroutine: the host pumps checkpoint and record frames through the
// Stream until the connection dies or the host's WAL closes. The stream
// is NOT counted in-flight — it never completes on its own, and the
// graceful-shutdown drain must not wait for it.
func (cn *Conn) dispatchReplicate(seq uint64) {
	after := cn.req.After
	go func() {
		st := &Stream{cn: cn, seq: seq}
		err := cn.host.Replicate(st, after)
		if err == nil {
			err = engine.ErrServerClosed
		}
		b := binary.AppendUvarint(make([]byte, 0, 64), seq)
		b = appendErrStatus(b, err)
		cn.queueResp(b)
		_ = cn.flushWire() // errors mean the follower is gone
	}()
}

// beginResp starts a response body in the reader-owned scratch buffer.
//
//tbtm:noalloc
func (cn *Conn) beginResp(seq uint64) []byte {
	return binary.AppendUvarint(cn.resp[:0], seq)
}

// queueFrame frames body into the coalescing write buffer.
//
//tbtm:noalloc
func (cn *Conn) queueFrame(body []byte) {
	cn.wmu.Lock()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	cn.wbuf = append(cn.wbuf, hdr[:]...)
	cn.wbuf = append(cn.wbuf, body...)
	cn.wmu.Unlock()
}

// queueResp frames body into the coalescing write buffer. An oversized
// body (an unbounded RANGE over a big store) is replaced by a
// StatusError frame rather than desynchronising a client whose
// readFrame would reject the length prefix without consuming the body.
//
//tbtm:noalloc
func (cn *Conn) queueResp(body []byte) {
	if len(body) > cn.cfg.MaxFrame {
		body = cn.oversizedResp(body)
	}
	cn.queueFrame(body)
	// Retain a grown reader scratch buffer for reuse; blocking
	// completions pass private buffers, which this keeps too — the
	// reader's next beginResp call resets it either way.
	if cap(body) > cap(cn.resp) {
		cn.resp = body[:0]
	}
}

// oversizedResp rewrites an over-limit body into a StatusError frame.
// Cold by construction: it only runs when a reply already blew the
// frame limit, so the formatting allocation is irrelevant.
//
//tbtm:allocok
func (cn *Conn) oversizedResp(body []byte) []byte {
	seq, _, _ := wire.TakeUvarint(body)
	body = binary.AppendUvarint(body[:0], seq)
	body = append(body, byte(wire.StatusError))
	return wire.AppendString(body, fmt.Sprintf(
		"server: reply exceeds the %d-byte frame limit; narrow the range or pass a limit and resume from the last key", cn.cfg.MaxFrame))
}

// flushWire writes the buffered response frames with one Write.
//
//tbtm:noalloc
func (cn *Conn) flushWire() error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if len(cn.wbuf) == 0 {
		return nil
	}
	_, err := cn.w.Write(cn.wbuf)
	cn.wbuf = cn.wbuf[:0]
	return err
}

// teardown closes the connection exactly once: end its replication
// streams, wake anything this connection parked (the client cannot
// receive the value anyway — for BTAKE the key must NOT be consumed),
// close the socket, and deregister from the host. Called only by the
// connection's reader goroutine (Serve).
func (cn *Conn) teardown() {
	cn.down.Do(func() {
		close(cn.replStop)
		if cn.cancel != nil && cn.blockingOut.Load() > 0 {
			cn.host.CancelBlocked(cn.cancel)
		}
		cn.c.Close()
		cn.host.ConnDone(cn)
	})
}

// Serve is the connection driver: one goroutine per connection blocked
// in Read — the Go runtime's netpoller is the event loop — processing
// each readable burst (greedy decode, batching, coalesced flush) inline.
// It works over any net.Conn and blocks until the connection dies; run
// it on its own goroutine.
func Serve(cn *Conn) {
	rec := cn.cfg.Recorder
	cn.ring = rec.AcquireRing()
	defer rec.ReleaseRing(cn.ring)
	defer cn.teardown()
	for {
		cn.grow(1)
		n, err := cn.c.Read(cn.in[len(cn.in):cap(cn.in)])
		if n > 0 {
			cn.in = cn.in[:len(cn.in)+n]
			if perr := cn.processBurst(); perr != nil {
				return
			}
		}
		if err != nil {
			return // EOF, conn closed, or a framing error we cannot answer
		}
	}
}
