// Pipe: the pipelined client API.
//
// A Pipe keeps many requests outstanding on one connection: enqueue
// calls build frames into the connection's write buffer without
// flushing, Flush pushes the window to the server in one write, and
// Recv returns responses one at a time. Non-blocking responses arrive
// in request order; blocking ones (BTake, Wait) arrive whenever they
// complete — the Seq field of each Reply is what matches a response to
// its request either way.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tbtm/server/wire"
)

// Reply is one pipelined response, decoded generically. Val is valid
// only until the next Recv on the Pipe.
type Reply struct {
	// Seq echoes the sequence ID the enqueue call returned.
	Seq uint64
	// Op is the opcode of the matched request.
	Op wire.Op
	// Status is the wire status byte.
	Status wire.Status
	// OK is the opcode's boolean outcome: found (Get), deleted (Del),
	// swapped (Cas), present (Wait), committed (Multi); true on success
	// for Ping/Set/BTake.
	OK bool
	// Val is the returned value for Get/BTake/Wait (nil otherwise).
	Val []byte
	// Err is the decoded error for StatusError/StatusClosed replies.
	Err error
}

// Pipe pipelines requests over its Client's connection. It shares the
// Client's buffers and sequence counter: interleave synchronous Client
// calls and Pipe windows freely, but only when no pipelined request is
// outstanding (the synchronous reader would swallow pipelined
// responses). Like the Client, a Pipe is not safe for concurrent use.
type Pipe struct {
	c       *Client
	pending map[uint64]wire.Op
}

// Pipe returns a pipelined view of the client's connection.
func (c *Client) Pipe() *Pipe {
	return &Pipe{c: c, pending: make(map[uint64]wire.Op)}
}

// Outstanding reports how many requests await a Recv.
func (p *Pipe) Outstanding() int { return len(p.pending) }

// enqueue writes the built request frame into the client's buffered
// writer without flushing and records it as pending.
func (p *Pipe) enqueue(req []byte) uint64 {
	c := p.c
	var op wire.Op
	if _, n := binary.Uvarint(req); n > 0 && n < len(req) {
		op = wire.Op(req[n])
	}
	c.out = req[:0]
	if err := wire.WriteFrame(c.bw, &c.hdr, req); err != nil {
		// The write error will resurface on Flush/Recv; the request still
		// counts as pending so Recv's bookkeeping stays consistent.
		_ = err
	}
	p.pending[c.seq] = op
	return c.seq
}

// Ping enqueues a ping.
func (p *Pipe) Ping() uint64 { return p.enqueue(p.c.newReq(wire.OpPing)) }

// Get enqueues a read of key.
func (p *Pipe) Get(key string) uint64 {
	return p.enqueue(wire.AppendString(p.c.newReq(wire.OpGet), key))
}

// Set enqueues key = val.
func (p *Pipe) Set(key string, val []byte) uint64 {
	req := wire.AppendString(p.c.newReq(wire.OpSet), key)
	return p.enqueue(wire.AppendBytes(req, val))
}

// Del enqueues a delete of key.
func (p *Pipe) Del(key string) uint64 {
	return p.enqueue(wire.AppendString(p.c.newReq(wire.OpDel), key))
}

// Cas enqueues a compare-and-swap (see Client.Cas for semantics).
func (p *Pipe) Cas(key string, expect []byte, expectPresent bool, val []byte) uint64 {
	req := wire.AppendString(p.c.newReq(wire.OpCas), key)
	req = append(req, wire.BoolByte(expectPresent))
	req = wire.AppendBytes(req, expect)
	return p.enqueue(wire.AppendBytes(req, val))
}

// BTake enqueues a blocking take. Its Reply may arrive after replies
// to later requests.
func (p *Pipe) BTake(key string) uint64 {
	return p.enqueue(wire.AppendString(p.c.newReq(wire.OpBTake), key))
}

// Wait enqueues a blocking wait-for-change (see Client.Wait). Its
// Reply may arrive after replies to later requests.
func (p *Pipe) Wait(key string, old []byte, oldPresent bool) uint64 {
	req := wire.AppendString(p.c.newReq(wire.OpWait), key)
	req = append(req, wire.BoolByte(oldPresent))
	return p.enqueue(wire.AppendBytes(req, old))
}

// Multi enqueues a script (see Client.MultiExec). The Reply's OK is
// the committed flag; per-op results are not decoded on the pipelined
// path.
func (p *Pipe) Multi(ops []MultiOp) (uint64, error) {
	req := p.c.newReq(wire.OpMulti)
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
			return 0, fmt.Errorf("server: opcode %s not valid in multi", op.Op)
		}
	}
	return p.enqueue(req), nil
}

// Flush sends every enqueued request to the server in one write.
func (p *Pipe) Flush() error { return p.c.bw.Flush() }

// Recv reads the next response. It flushes first, so a bare
// enqueue-then-Recv loop cannot deadlock on an unsent window. Reply.Val
// is valid until the next Recv.
func (p *Pipe) Recv() (Reply, error) {
	c := p.c
	if len(p.pending) == 0 {
		return Reply{}, errors.New("server: Recv with no outstanding requests")
	}
	if err := c.bw.Flush(); err != nil {
		return Reply{}, err
	}
	payload, buf, err := wire.ReadFrame(c.br, &c.hdr, c.in, c.maxFrame)
	c.in = buf
	if err != nil {
		return Reply{}, err
	}
	seq, body, err := wire.TakeUvarint(payload)
	if err != nil {
		return Reply{}, err
	}
	op, ok := p.pending[seq]
	if !ok {
		return Reply{}, fmt.Errorf("server: response for unknown sequence %d", seq)
	}
	delete(p.pending, seq)
	st, body, err := wire.TakeByte(body)
	if err != nil {
		return Reply{}, err
	}
	r := Reply{Seq: seq, Op: op, Status: wire.Status(st)}
	if err := statusErr(r.Status, body); err != nil {
		r.Err = err
		return r, nil
	}
	switch op {
	case wire.OpPing, wire.OpSet:
		r.OK = r.Status == wire.StatusOK
	case wire.OpGet, wire.OpBTake:
		if r.Status == wire.StatusOK {
			r.OK = true
			r.Val, _, err = wire.TakeBytes(body)
		}
	case wire.OpDel, wire.OpCas:
		var b byte
		if b, _, err = wire.TakeByte(body); err == nil {
			r.OK = b != 0
		}
	case wire.OpWait:
		var b byte
		if b, body, err = wire.TakeByte(body); err == nil && b != 0 {
			r.OK = true
			r.Val, _, err = wire.TakeBytes(body)
		}
	case wire.OpMulti:
		var b byte
		if b, _, err = wire.TakeByte(body); err == nil {
			r.OK = b != 0
		}
	case wire.OpStats:
		r.OK = true
		r.Val, _, err = wire.TakeBytes(body)
	}
	if err != nil {
		return Reply{}, err
	}
	return r, nil
}
