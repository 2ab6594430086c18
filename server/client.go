package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"tbtm/server/engine"
	"tbtm/server/wire"
)

// Errors the Client returns to callers (see server/engine).
var (
	// ErrServerClosed: the server is shutting down; the request was not
	// executed (or a parked blocking op was woken by the shutdown).
	ErrServerClosed = engine.ErrServerClosed
	// ErrClientGone: wakes a parked blocking op whose connection hung
	// up; the server tears that connection down without an answer.
	ErrClientGone = engine.ErrClientGone
	// ErrReadOnlyMode: a durable primary degraded to read-only after a
	// WAL failure (fail-stop for writes; reads keep serving).
	ErrReadOnlyMode = engine.ErrReadOnly
	// ErrReplicaRead: the server is a read replica; writes must go to
	// the primary. Distinct from ErrReadOnlyMode so clients can fail
	// over instead of alerting.
	ErrReplicaRead = engine.ErrReplicaRead
)

// Client is a tbtmd connection. A Client carries one request at a time
// and is NOT safe for concurrent use; open one Client per goroutine
// (connections are cheap — it is engine Threads the server pools, not
// sockets). Blocking calls (BTake, Wait) return only when the server
// answers: a remote commit changes the watched key, or shutdown wakes
// the parked transaction (ErrServerClosed).
//
// To keep many requests outstanding on the connection, use Pipe.
type Client struct {
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	hdr [4]byte

	seq      uint64 // last assigned request sequence ID
	out      []byte // reusable request build buffer
	in       []byte // reusable response frame buffer
	maxFrame int
}

// Dial connects to a tbtmd server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout is Dial with a connect timeout (0 = none).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// NewClient wraps an established connection.
func NewClient(c net.Conn) *Client {
	return &Client{
		c:        c,
		br:       bufio.NewReader(c),
		bw:       bufio.NewWriter(c),
		maxFrame: wire.DefaultMaxFrame,
	}
}

// Close closes the connection. Closing while a blocking call is in
// flight (from another goroutine) unblocks it with an error — the one
// concurrency the Client supports.
func (c *Client) Close() error { return c.c.Close() }

// newReq assigns the next sequence ID and starts a request payload:
// uvarint sequence ID, opcode byte.
func (c *Client) newReq(op wire.Op) []byte {
	c.seq++
	req := binary.AppendUvarint(c.out[:0], c.seq)
	return append(req, byte(op))
}

// roundTrip sends the built request payload and returns the response
// status and payload (valid until the next call). The synchronous
// Client has exactly one request outstanding, so the echoed sequence
// ID must match the one just assigned.
func (c *Client) roundTrip(req []byte) (wire.Status, []byte, error) {
	c.out = req[:0]
	if err := wire.WriteFrame(c.bw, &c.hdr, req); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	payload, buf, err := wire.ReadFrame(c.br, &c.hdr, c.in, c.maxFrame)
	c.in = buf
	if err != nil {
		return 0, nil, err
	}
	seq, p, err := wire.TakeUvarint(payload)
	if err != nil {
		return 0, nil, err
	}
	if seq != c.seq {
		return 0, nil, fmt.Errorf("server: response for sequence %d, want %d", seq, c.seq)
	}
	if len(p) == 0 {
		return 0, nil, wire.ErrTruncated
	}
	return wire.Status(p[0]), p[1:], nil
}

// err maps non-OK statuses to errors (StatusNotFound is handled by the
// typed accessors, not here).
func statusErr(st wire.Status, p []byte) error {
	switch st {
	case wire.StatusOK, wire.StatusNotFound:
		return nil
	case wire.StatusClosed:
		return ErrServerClosed
	case wire.StatusReadOnly:
		// The reason byte distinguishes a replica (fail over to the
		// primary) from a degraded primary (operator attention); its
		// absence means a pre-replication server — WAL degradation.
		if b, _, err := wire.TakeByte(p); err == nil && b == wire.ReadOnlyReplica {
			return ErrReplicaRead
		}
		return ErrReadOnlyMode
	case wire.StatusError:
		msg, _, err := wire.TakeBytes(p)
		if err != nil {
			return fmt.Errorf("server: error response (unreadable message)")
		}
		return errors.New(string(msg))
	}
	return fmt.Errorf("server: unknown response status %d", st)
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	st, p, err := c.roundTrip(c.newReq(wire.OpPing))
	if err != nil {
		return err
	}
	return statusErr(st, p)
}

// Get reads key. ok is false when the key does not exist. The returned
// slice is valid until the next call on this Client.
func (c *Client) Get(key string) (val []byte, ok bool, err error) {
	req := wire.AppendString(c.newReq(wire.OpGet), key)
	st, p, err := c.roundTrip(req)
	if err != nil {
		return nil, false, err
	}
	if st == wire.StatusNotFound {
		return nil, false, nil
	}
	if err := statusErr(st, p); err != nil {
		return nil, false, err
	}
	v, _, err := wire.TakeBytes(p)
	return v, true, err
}

// Set writes key = val.
func (c *Client) Set(key string, val []byte) error {
	req := wire.AppendString(c.newReq(wire.OpSet), key)
	req = wire.AppendBytes(req, val)
	st, p, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	return statusErr(st, p)
}

// Del removes key, reporting whether it existed.
func (c *Client) Del(key string) (deleted bool, err error) {
	req := wire.AppendString(c.newReq(wire.OpDel), key)
	st, p, err := c.roundTrip(req)
	if err != nil {
		return false, err
	}
	if err := statusErr(st, p); err != nil {
		return false, err
	}
	b, _, err := wire.TakeByte(p)
	return b != 0, err
}

// Cas compares-and-swaps: when expectPresent, the swap succeeds iff key
// holds exactly expect; when !expectPresent, iff key is absent
// (create-if-absent). On success key is set to val.
func (c *Client) Cas(key string, expect []byte, expectPresent bool, val []byte) (swapped bool, err error) {
	req := wire.AppendString(c.newReq(wire.OpCas), key)
	req = append(req, wire.BoolByte(expectPresent))
	req = wire.AppendBytes(req, expect)
	req = wire.AppendBytes(req, val)
	st, p, err := c.roundTrip(req)
	if err != nil {
		return false, err
	}
	if err := statusErr(st, p); err != nil {
		return false, err
	}
	b, _, err := wire.TakeByte(p)
	return b != 0, err
}

// KV is one pair of a Range reply.
type KV struct {
	Key string
	Val []byte
}

// Range returns up to limit pairs with from <= key < to in ascending
// order, as ONE consistent snapshot (a long read-only transaction
// server-side). to == "" means unbounded above; limit 0 means no limit.
func (c *Client) Range(from, to string, limit int) ([]KV, error) {
	req := wire.AppendString(c.newReq(wire.OpRange), from)
	req = wire.AppendString(req, to)
	req = binary.AppendUvarint(req, uint64(limit))
	st, p, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if err := statusErr(st, p); err != nil {
		return nil, err
	}
	n, p, err := wire.TakeUvarint(p)
	if err != nil {
		return nil, err
	}
	// Cap the preallocation by what the payload could possibly hold
	// (each pair takes at least two length bytes): a corrupt count must
	// not translate into a giant allocation before decode detects it.
	capHint := n
	if max := uint64(len(p)) / 2; capHint > max {
		capHint = max
	}
	out := make([]KV, 0, capHint)
	for i := uint64(0); i < n; i++ {
		var k, v []byte
		if k, p, err = wire.TakeBytes(p); err != nil {
			return nil, err
		}
		if v, p, err = wire.TakeBytes(p); err != nil {
			return nil, err
		}
		out = append(out, KV{Key: string(k), Val: append([]byte(nil), v...)})
	}
	return out, nil
}

// MultiOp is one operation of a MultiExec script.
type MultiOp struct {
	// Op must be OpGet, OpSet, OpDel or OpCas.
	Op            wire.Op
	Key           string
	Val           []byte
	Expect        []byte
	ExpectPresent bool
}

// MGet, MSet, MDel and MCas build script entries.
func MGet(key string) MultiOp           { return MultiOp{Op: wire.OpGet, Key: key} }
func MSet(key string, v []byte) MultiOp { return MultiOp{Op: wire.OpSet, Key: key, Val: v} }
func MDel(key string) MultiOp           { return MultiOp{Op: wire.OpDel, Key: key} }

// MCas builds a CAS entry; see Client.Cas for the semantics. A failed
// CAS aborts the whole script.
func MCas(key string, expect []byte, expectPresent bool, v []byte) MultiOp {
	return MultiOp{Op: wire.OpCas, Key: key, Expect: expect, ExpectPresent: expectPresent, Val: v}
}

// MultiResult is the outcome of one script operation. OK means: found
// (get), deleted (del), swapped (cas); always true for set.
type MultiResult struct {
	OK  bool
	Val []byte // get only
}

// MultiExec runs the script as one atomic transaction server-side.
// committed reports whether it took effect: a failed CAS rolls the
// whole script back and returns committed = false, with results
// covering the ops up to and including the failed one. Reads in a
// committed script observe the script's own earlier writes.
func (c *Client) MultiExec(ops []MultiOp) (results []MultiResult, committed bool, err error) {
	req := c.newReq(wire.OpMulti)
	req = binary.AppendUvarint(req, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		req = append(req, byte(op.Op))
		req = wire.AppendString(req, op.Key)
		switch op.Op {
		case wire.OpGet, wire.OpDel:
		case wire.OpSet:
			req = wire.AppendBytes(req, op.Val)
		case wire.OpCas:
			req = append(req, wire.BoolByte(op.ExpectPresent))
			req = wire.AppendBytes(req, op.Expect)
			req = wire.AppendBytes(req, op.Val)
		default:
			return nil, false, fmt.Errorf("server: opcode %s not valid in multi", op.Op)
		}
	}
	st, p, err := c.roundTrip(req)
	if err != nil {
		return nil, false, err
	}
	if err := statusErr(st, p); err != nil {
		return nil, false, err
	}
	cb, p, err := wire.TakeByte(p)
	if err != nil {
		return nil, false, err
	}
	committed = cb != 0
	n, p, err := wire.TakeUvarint(p)
	if err != nil {
		return nil, false, err
	}
	results = make([]MultiResult, 0, n)
	for i := uint64(0); int(i) < int(n) && int(i) < len(ops); i++ {
		var sb byte
		if sb, p, err = wire.TakeByte(p); err != nil {
			return nil, false, err
		}
		res := MultiResult{}
		switch ops[i].Op {
		case wire.OpGet:
			res.OK = wire.Status(sb) == wire.StatusOK
			if res.OK {
				var v []byte
				if v, p, err = wire.TakeBytes(p); err != nil {
					return nil, false, err
				}
				res.Val = append([]byte(nil), v...)
			}
		case wire.OpSet:
			res.OK = wire.Status(sb) == wire.StatusOK
		case wire.OpDel, wire.OpCas:
			var b byte
			if b, p, err = wire.TakeByte(p); err != nil {
				return nil, false, err
			}
			res.OK = b != 0
		}
		results = append(results, res)
	}
	return results, committed, nil
}

// BTake blocks until key exists, then atomically deletes it and returns
// its value. Woken by server shutdown it returns ErrServerClosed.
func (c *Client) BTake(key string) ([]byte, error) {
	req := wire.AppendString(c.newReq(wire.OpBTake), key)
	st, p, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if err := statusErr(st, p); err != nil {
		return nil, err
	}
	v, _, err := wire.TakeBytes(p)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), v...), nil
}

// Wait blocks until key's state differs from (old, oldPresent), then
// returns the new state. Woken by server shutdown it returns
// ErrServerClosed.
func (c *Client) Wait(key string, old []byte, oldPresent bool) (val []byte, present bool, err error) {
	req := wire.AppendString(c.newReq(wire.OpWait), key)
	req = append(req, wire.BoolByte(oldPresent))
	req = wire.AppendBytes(req, old)
	st, p, err := c.roundTrip(req)
	if err != nil {
		return nil, false, err
	}
	if err := statusErr(st, p); err != nil {
		return nil, false, err
	}
	pb, p, err := wire.TakeByte(p)
	if err != nil {
		return nil, false, err
	}
	if pb == 0 {
		return nil, false, nil
	}
	v, _, err := wire.TakeBytes(p)
	if err != nil {
		return nil, false, err
	}
	return append([]byte(nil), v...), true, nil
}

// Stats fetches the server's engine and executor counters.
func (c *Client) Stats() (StatsReply, error) {
	var reply StatsReply
	st, p, err := c.roundTrip(c.newReq(wire.OpStats))
	if err != nil {
		return reply, err
	}
	if err := statusErr(st, p); err != nil {
		return reply, err
	}
	doc, _, err := wire.TakeBytes(p)
	if err != nil {
		return reply, err
	}
	return reply, json.Unmarshal(doc, &reply)
}

// Trace fetches the server's flight-recorder dump — the merged,
// time-ordered phase events — as a raw JSON document. max bounds the
// event count (0 = the server default).
func (c *Client) Trace(max int) ([]byte, error) {
	req := binary.AppendUvarint(c.newReq(wire.OpTrace), uint64(max))
	st, p, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if err := statusErr(st, p); err != nil {
		return nil, err
	}
	doc, _, err := wire.TakeBytes(p)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), doc...), nil
}
