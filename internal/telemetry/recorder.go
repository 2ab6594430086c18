package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind tags a flight-recorder event with the op phase it covers.
type EventKind uint8

const (
	EvNone EventKind = iota
	// EvOp is the whole-op envelope: for a pipelined batch one event
	// covers the batch and Aux carries the op count; for solo and
	// blocking ops Aux is 1. Recording an EvOp is also the slow-op
	// checkpoint.
	EvOp
	// EvDecode covers one burst's frame decode; Aux = frames decoded.
	EvDecode
	// EvLeaseWait covers the wait for an executor lease (queueing under
	// backpressure).
	EvLeaseWait
	// EvExec covers engine execution under the lease (begin..commit,
	// including conflict retries); Aux = transactions begun, so Aux-1
	// is the conflict-retry count.
	EvExec
	// EvWALGate covers the wait to acquire the durable layer's
	// checkpoint gate (nonzero while a checkpoint wedges writers).
	EvWALGate
	// EvFsync covers the group-commit ticket wait (write+fsync for
	// strict mode, write-ack for relaxed).
	EvFsync
	// EvFlush covers writing the coalesced response buffer to the
	// socket.
	EvFlush
	// EvReplApply covers a replica applying one shipped WAL record;
	// Seq is the WAL sequence number.
	EvReplApply

	evKinds
)

func (k EventKind) String() string {
	switch k {
	case EvOp:
		return "op"
	case EvDecode:
		return "decode"
	case EvLeaseWait:
		return "lease_wait"
	case EvExec:
		return "exec"
	case EvWALGate:
		return "wal_gate"
	case EvFsync:
		return "fsync"
	case EvFlush:
		return "flush"
	case EvReplApply:
		return "repl_apply"
	}
	return "unknown"
}

// Event is one fixed-size flight-recorder record. TS is nanoseconds
// since the recorder's epoch (monotonic), Dur the phase duration in
// nanoseconds. Conn and Seq correlate the phases of one op; Aux is
// kind-specific (see the kind constants).
type Event struct {
	TS   int64
	Dur  int64
	Seq  uint64
	Conn uint32
	Aux  uint32
	Kind EventKind
	Op   uint8
}

// Ring is a fixed-capacity event ring. Each connection borrows a
// pooled ring for its lifetime (AcquireRing); a long-lived writer such
// as the replica applier holds a permanent one (Recorder.Ring). A short critical section under a plain mutex keeps
// recording race-free without allocating — a Lock/Unlock pair on an
// uncontended mutex costs ~20ns, well under the phase durations being
// measured.
type Ring struct {
	rec *Recorder
	mu  sync.Mutex
	ev  []Event
	pos uint64 // events ever recorded; next slot is pos % len(ev)
}

// Record appends one event (a no-op on a nil ring or a disarmed
// recorder, so instrumentation sites need no guards).
//
//tbtm:noalloc
func (r *Ring) Record(kind EventKind, op uint8, conn uint32, seq uint64, aux uint32, ts, dur int64) {
	if r == nil || !r.rec.armed.Load() {
		return
	}
	r.mu.Lock()
	i := r.pos % uint64(len(r.ev))
	r.ev[i] = Event{TS: ts, Dur: dur, Seq: seq, Conn: conn, Aux: aux, Kind: kind, Op: op}
	r.pos++
	r.mu.Unlock()
}

// Now returns the current timestamp for a phase start, or 0 when the
// ring is nil or disarmed (Span and Op treat a zero start as "skip").
//
//tbtm:noalloc
func (r *Ring) Now() int64 {
	if r == nil || !r.rec.armed.Load() {
		return 0
	}
	return int64(time.Since(r.rec.epoch))
}

// Span records a phase that started at start (from Now) and ends now,
// returning the end timestamp so adjacent phases can chain without a
// second clock read.
//
//tbtm:noalloc
func (r *Ring) Span(kind EventKind, op uint8, conn uint32, seq uint64, aux uint32, start int64) int64 {
	if r == nil || start == 0 || !r.rec.armed.Load() {
		return 0
	}
	now := int64(time.Since(r.rec.epoch))
	r.Record(kind, op, conn, seq, aux, start, now-start)
	return now
}

// Op records the whole-op envelope event and, when the op's duration
// crosses the recorder's slow-op threshold, emits the slow-op log
// line (a cold, allocating path).
//
//tbtm:noalloc
func (r *Ring) Op(op uint8, conn uint32, seq uint64, aux uint32, start int64) {
	if r == nil || start == 0 || !r.rec.armed.Load() {
		return
	}
	now := int64(time.Since(r.rec.epoch))
	dur := now - start
	r.Record(EvOp, op, conn, seq, aux, start, dur)
	if t := r.rec.slowNs.Load(); t > 0 && dur >= t {
		r.rec.logSlow(r, op, conn, seq, aux, start, dur)
	}
}

// maxRings bounds the pooled-ring population; connections beyond it share one overflow ring rather than growing memory.
const maxRings = 64

// Recorder owns the rings, the armed switch, and the slow-op sink.
// It is armed by default; disarming turns every record site into a
// single atomic load.
type Recorder struct {
	epoch  time.Time
	armed  atomic.Bool
	slowNs atomic.Int64
	events int
	opName atomic.Pointer[func(uint8) string]

	slowMu  sync.Mutex
	slowOut io.Writer

	mu       sync.Mutex
	rings    []*Ring
	free     []*Ring
	overflow *Ring
}

// DefaultRingEvents is the per-ring capacity when the caller passes
// zero: 4096 events × 40 bytes ≈ 160KiB per ring.
const DefaultRingEvents = 4096

// NewRecorder returns an armed recorder with events slots per ring
// (DefaultRingEvents if events <= 0). The slow-op log starts
// disabled; SetSlowOp enables it.
func NewRecorder(events int) *Recorder {
	if events <= 0 {
		events = DefaultRingEvents
	}
	rec := &Recorder{epoch: time.Now(), events: events, slowOut: os.Stderr}
	rec.armed.Store(true)
	return rec
}

// Arm flips the recorder on or off at runtime.
func (rec *Recorder) Arm(on bool) { rec.armed.Store(on) }

// Armed reports the switch.
func (rec *Recorder) Armed() bool { return rec.armed.Load() }

// SetSlowOp sets the slow-op threshold (0 disables) and, when w is
// non-nil, the log sink (default stderr). Slow-op detection rides on
// the op envelope event, so it requires the recorder to be armed.
func (rec *Recorder) SetSlowOp(d time.Duration, w io.Writer) {
	rec.slowNs.Store(int64(d))
	if w != nil {
		rec.slowMu.Lock()
		rec.slowOut = w
		rec.slowMu.Unlock()
	}
}

// SetOpNames installs the opcode renderer used by the slow-op log and
// JSON dumps (the wire layer's Op.String, passed in to keep telemetry
// dependency-free).
func (rec *Recorder) SetOpNames(fn func(uint8) string) { rec.opName.Store(&fn) }

func (rec *Recorder) opString(op uint8) string {
	if p := rec.opName.Load(); p != nil {
		return (*p)(op)
	}
	return strconv.Itoa(int(op))
}

func (rec *Recorder) newRing() *Ring {
	return &Ring{rec: rec, ev: make([]Event, rec.events)}
}

// Ring allocates a permanent ring for one long-lived writer (the
// replica applier); connections use AcquireRing instead.
func (rec *Recorder) Ring() *Ring {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	r := rec.newRing()
	rec.rings = append(rec.rings, r)
	return r
}

// AcquireRing borrows a pooled ring for a connection;
// ReleaseRing returns it. Past maxRings total rings, connections
// share one overflow ring (its mutex keeps that safe).
func (rec *Recorder) AcquireRing() *Ring {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if n := len(rec.free); n > 0 {
		r := rec.free[n-1]
		rec.free = rec.free[:n-1]
		return r
	}
	if len(rec.rings) >= maxRings {
		if rec.overflow == nil {
			rec.overflow = rec.newRing()
			rec.rings = append(rec.rings, rec.overflow)
		}
		return rec.overflow
	}
	r := rec.newRing()
	rec.rings = append(rec.rings, r)
	return r
}

// ReleaseRing returns a pooled ring (no-op for nil or the shared
// overflow ring). The ring keeps its events — a dump after a conn
// closes still sees its tail.
func (rec *Recorder) ReleaseRing(r *Ring) {
	if rec == nil || r == nil {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if r == rec.overflow {
		return
	}
	rec.free = append(rec.free, r)
}

// Snapshot merges every ring's surviving events, oldest first,
// keeping at most max (0 = all).
func (rec *Recorder) Snapshot(max int) []Event {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	rings := make([]*Ring, len(rec.rings))
	copy(rings, rec.rings)
	rec.mu.Unlock()
	var out []Event
	for _, r := range rings {
		r.mu.Lock()
		n := uint64(len(r.ev))
		have := r.pos
		if have > n {
			have = n
		}
		for i := uint64(0); i < have; i++ {
			out = append(out, r.ev[(r.pos-have+i)%n])
		}
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Dropped returns how many events have been overwritten across all
// rings since the recorder started.
func (rec *Recorder) Dropped() uint64 {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var d uint64
	for _, r := range rec.rings {
		r.mu.Lock()
		if n := uint64(len(r.ev)); r.pos > n {
			d += r.pos - n
		}
		r.mu.Unlock()
	}
	return d
}

// Recorded returns the total events ever recorded (the registry
// exposes it as a counter).
func (rec *Recorder) Recorded() uint64 {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var n uint64
	for _, r := range rec.rings {
		r.mu.Lock()
		n += r.pos
		r.mu.Unlock()
	}
	return n
}

type eventJSON struct {
	TS   int64  `json:"ts_ns"`
	Dur  int64  `json:"dur_ns"`
	Kind string `json:"kind"`
	Op   string `json:"op,omitempty"`
	Conn uint32 `json:"conn"`
	Seq  uint64 `json:"seq"`
	Aux  uint32 `json:"aux,omitempty"`
}

type dumpJSON struct {
	Armed     bool        `json:"armed"`
	RingSize  int         `json:"ring_events"`
	Rings     int         `json:"rings"`
	Recorded  uint64      `json:"recorded"`
	Dropped   uint64      `json:"dropped"`
	SlowOpNs  int64       `json:"slow_op_ns"`
	Events    []eventJSON `json:"events"`
	Truncated bool        `json:"truncated,omitempty"`
}

// DumpJSON renders a merged snapshot (at most max events, 0 = all)
// as one JSON document — the payload of the TRACE wire verb and the
// SIGUSR1 dump.
func (rec *Recorder) DumpJSON(max int) ([]byte, error) {
	if rec == nil {
		return []byte(`{"armed":false,"events":[]}`), nil
	}
	evs := rec.Snapshot(max)
	d := dumpJSON{
		Armed:    rec.Armed(),
		RingSize: rec.events,
		Recorded: rec.Recorded(),
		Dropped:  rec.Dropped(),
		SlowOpNs: rec.slowNs.Load(),
		Events:   make([]eventJSON, len(evs)),
	}
	rec.mu.Lock()
	d.Rings = len(rec.rings)
	rec.mu.Unlock()
	d.Truncated = max > 0 && len(evs) == max
	for i, e := range evs {
		j := eventJSON{
			TS: e.TS, Dur: e.Dur, Kind: e.Kind.String(),
			Conn: e.Conn, Seq: e.Seq, Aux: e.Aux,
		}
		if e.Kind == EvOp || e.Kind == EvExec || e.Kind == EvLeaseWait {
			j.Op = rec.opString(e.Op)
		}
		d.Events[i] = j
	}
	return json.Marshal(d)
}

// logSlow reconstructs the phase breakdown for one op from its ring
// and writes a single slow-op line. Cold path: it runs only when an
// op crosses the threshold.
//
//tbtm:allocok
func (rec *Recorder) logSlow(r *Ring, op uint8, conn uint32, seq uint64, aux uint32, ts, dur int64) {
	var phase [evKinds]int64
	var attempts uint32
	r.mu.Lock()
	n := uint64(len(r.ev))
	have := r.pos
	if have > n {
		have = n
	}
	for i := uint64(0); i < have; i++ {
		e := &r.ev[(r.pos-have+i)%n]
		if e.Conn != conn || e.Seq != seq || e.Kind == EvOp || e.TS < ts-int64(time.Second) {
			continue
		}
		phase[e.Kind] += e.Dur
		if e.Kind == EvExec {
			attempts += e.Aux
		}
	}
	r.mu.Unlock()

	var b []byte
	b = append(b, "tbtm slow op: op="...)
	b = append(b, rec.opString(op)...)
	b = fmt.Appendf(b, " conn=%d seq=%d ops=%d dur=%s", conn, seq, aux, time.Duration(dur))
	for k := EventKind(EvOp + 1); k < evKinds; k++ {
		if phase[k] == 0 {
			continue
		}
		b = fmt.Appendf(b, " %s=%s", k, time.Duration(phase[k]))
	}
	if attempts > 1 {
		b = fmt.Appendf(b, " attempts=%d", attempts)
	}
	b = append(b, '\n')
	rec.slowMu.Lock()
	rec.slowOut.Write(b)
	rec.slowMu.Unlock()
}
