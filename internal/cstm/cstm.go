// Package cstm implements CS-STM, the causally serializable STM of paper
// §4.1 (Algorithm 1), using a vector time base — either exact vector
// clocks or plausible r-entry REV clocks (§4.3), which trade extra
// (false-conflict) aborts for constant timestamp size but never miss a
// true causal conflict.
//
// Shared objects traverse a sequence of versions; each version carries
// the vector commit timestamp of the transaction that installed it. A
// transaction T accumulates its tentative commit timestamp T.ct as the
// element-wise maximum of every version it opens. Reads are invisible; a
// single writer per object is enforced with contention-managed
// arbitration. At commit, T validates that no version it read has a
// successor whose timestamp strictly precedes T.ct — such a successor
// would have to be ordered both before and after T, so no causally
// consistent view could exist (paper §4.1, correctness argument).
package cstm

import (
	"sync/atomic"

	"tbtm/internal/cm"
	"tbtm/internal/core"
	"tbtm/internal/epoch"
	"tbtm/internal/stats"
	"tbtm/internal/vclock"
)

// Config parameterizes a CS-STM instance.
type Config struct {
	// Threads is the number of worker threads the vector clock is sized
	// for (default 16). Creating more threads than this is safe — they
	// share entries like a plausible clock.
	Threads int
	// Entries is the timestamp width r. Zero means Threads (exact vector
	// clocks); 1 gives a single shared counter; intermediate values give
	// plausible REV clocks.
	Entries int
	// Mapping selects the processor→entry mapping for plausible widths
	// (default: the paper's modulo mapping).
	Mapping vclock.Mapping
	// Comb appends a second REV segment of r+1 modulo-mapped entries to
	// the plausible timestamps (§4.3's "other types of plausible
	// clocks"; see vclock.NewComb). A false ordering must survive both
	// processor→entry sharings, reducing spurious aborts at the price of
	// wider timestamps.
	Comb bool
	// CM arbitrates write/write conflicts. Nil means Polite.
	CM cm.Manager
	// Versions is the number of committed versions retained per object
	// (default 1, the paper's base algorithm, where "old versions do not
	// need to be kept"). Values > 1 enable the multi-version variant of
	// §4.1 footnote 1: a read may return an older retained version,
	// chosen to maximize the chances of successful validation, trading
	// space for long-reader concurrency.
	Versions int
	// Lot, when non-nil, receives a wakeup for every object an update
	// commit installs a version into, unblocking transactions parked in
	// the facade's Retry. Nil keeps the commit path wake-free.
	Lot *core.ParkingLot
	// CommitLog sizes the global commit log (0 default-on at
	// core.DefaultCommitLogSlots, >0 explicit size, <0 off). Vector
	// commit timestamps are neither scalar nor dense, so the log runs in
	// claim mode: every update commit claims the next log tick and
	// publishes its write set under it before validating. A committing
	// transaction whose reads all returned current versions then skips
	// the O(reads) successor validation whenever the window between its
	// begin and its commit avoided its read footprint.
	CommitLog int
	// CrossCheck makes every log-clear validation skip re-run the full
	// successor walk and panic on disagreement (conformance harness
	// only).
	CrossCheck bool
}

// Stats is a snapshot of an instance's cumulative counters.
type Stats struct {
	Commits         uint64 // transactions committed
	Aborts          uint64 // transactions aborted
	Conflicts       uint64 // validation failures
	FastValidations uint64 // commits that skipped the successor walk (commit log)
	LogWraps        uint64 // fast-path fallbacks because the log window wrapped
}

// Counter slots within a thread's stats shard.
const (
	cntCommits = iota
	cntAborts
	cntConflicts
	cntFastValidations
	cntLogWraps
)

// STM is a CS-STM instance.
type STM struct {
	cfg   Config
	clock *vclock.Clock
	// log is the claim-mode commit log, nil when disabled.
	log *core.CommitLog

	nextThread atomic.Int64

	// shards holds the per-thread counter shards; see internal/stats.
	shards stats.Set

	// domain is the epoch-based reclamation domain gating descriptor
	// reuse (versions are not recycled here: their CT timestamps escape
	// into VC_p and thread-owned buffers, see internal/epoch).
	domain epoch.Domain
}

// New returns a CS-STM instance, applying defaults for zero fields.
func New(cfg Config) *STM {
	if cfg.Threads < 1 {
		cfg.Threads = 16
	}
	if cfg.Entries < 1 || cfg.Entries > cfg.Threads {
		cfg.Entries = cfg.Threads
	}
	if cfg.CM == nil {
		cfg.CM = &cm.Polite{}
	}
	if cfg.Versions < 1 {
		cfg.Versions = 1
	}
	mk := vclock.NewMapped
	if cfg.Comb {
		mk = vclock.NewComb
	}
	s := &STM{cfg: cfg, clock: mk(cfg.Threads, cfg.Entries, cfg.Mapping)}
	if cfg.CommitLog >= 0 {
		s.log = core.NewCommitLog(cfg.CommitLog)
	}
	return s
}

// Log returns the commit log, or nil when disabled (tests).
func (s *STM) Log() *core.CommitLog { return s.log }

// Config returns the effective configuration.
func (s *STM) Config() Config { return s.cfg }

// Clock exposes the vector time base (tests, S-STM reuse).
func (s *STM) Clock() *vclock.Clock { return s.clock }

// Stats returns a snapshot of the cumulative counters, aggregated across
// the per-thread shards.
func (s *STM) Stats() Stats {
	c := s.shards.Snapshot()
	return Stats{
		Commits:         c[cntCommits],
		Aborts:          c[cntAborts],
		Conflicts:       c[cntConflicts],
		FastValidations: c[cntFastValidations],
		LogWraps:        c[cntLogWraps],
	}
}

// Version is one committed state of an Object. CT is the vector commit
// timestamp of the installing transaction; Next is set when the version
// is superseded, giving validation the v_{i+1} of Algorithm 1 line 22.
type Version struct {
	Value    any
	CT       vclock.TS
	Seq      uint64
	WriterID uint64

	next atomic.Pointer[Version]
	prev atomic.Pointer[Version]
}

// Next returns the successor version, or nil while this version is
// current.
func (v *Version) Next() *Version { return v.next.Load() }

// Prev returns the retained predecessor version, or nil when this is the
// oldest retained version (always nil with Config.Versions == 1).
func (v *Version) Prev() *Version { return v.prev.Load() }

// Object is a CS-STM shared object: the current version plus a writer
// ownership word (single writer per object, Algorithm 1 lines 9-13).
type Object struct {
	id  uint64
	cur atomic.Pointer[Version]
	wr  atomic.Pointer[core.TxMeta]
}

// NewObject allocates an object whose initial version has a zero
// timestamp.
func (s *STM) NewObject(initial any) *Object {
	o := &Object{id: core.NextObjectID()}
	o.cur.Store(&Version{Value: initial, CT: s.clock.Zero(), Seq: 1})
	return o
}

// ID returns the object's process-unique identifier.
func (o *Object) ID() uint64 { return o.id }

// Current returns the newest committed version.
func (o *Object) Current() *Version { return o.cur.Load() }

// Writer returns the transaction holding write ownership, or nil.
func (o *Object) Writer() *core.TxMeta { return o.wr.Load() }

// Thread is a per-goroutine handle carrying VC_p, the commit timestamp of
// the thread's last committed transaction (Algorithm 1 line 3). It also
// owns a stats shard and a reusable transaction descriptor, so the
// begin→commit hot path performs no descriptor allocation.
type Thread struct {
	stm   *STM
	id    int
	vc    vclock.TS
	shard *stats.Shard
	tx    Tx            // reusable descriptor, recycled by Begin once finished
	ctbuf vclock.TS     // spare timestamp buffer recovered from finished transactions
	rec   core.Recycler // epoch-gated descriptor pool
	idbuf []uint64      // reusable write-set ID buffer for commit-log publication
	// vcEscaped records whether the buffer behind vc was published into
	// installed versions (an update commit's ct). A read-only commit's ct
	// buffer stays thread-private, so when it replaces vc the old vc
	// buffer can be recovered for reuse — read-only commit loops then
	// ping-pong two buffers instead of cloning per transaction.
	vcEscaped bool
}

// NewThread returns a handle for one worker goroutine.
func (s *STM) NewThread() *Thread {
	th := &Thread{stm: s, id: int(s.nextThread.Add(1) - 1), vc: s.clock.Zero(), shard: s.shards.NewShard()}
	th.rec.Init(&s.domain)
	return th
}

// ID returns the thread's index (its vector-clock entry is ID mod r).
func (th *Thread) ID() int { return th.id }

// STM returns the owning instance.
func (th *Thread) STM() *STM { return th.stm }

// VC returns a copy of the thread's last committed timestamp (tests).
func (th *Thread) VC() vclock.TS { return th.vc.Clone() }

// VCInto copies the thread's last committed timestamp into dst, reusing
// dst's storage when it is wide enough, and returns the result. The
// zero-alloc sibling of VC for hot-path callers that keep a scratch
// buffer.
func (th *Thread) VCInto(dst vclock.TS) vclock.TS { return th.vc.CopyInto(dst) }

// Begin starts a transaction (Algorithm 1 lines 1-5). kind feeds the
// contention manager; readOnly transactions skip the commit-time tick.
//
// Begin may recycle the thread's previous transaction descriptor: a *Tx
// is invalid after Commit or Abort and must not be retained across the
// next Begin on the same thread.
func (th *Thread) Begin(kind core.TxKind, readOnly bool) *Tx {
	tx := &th.tx
	if tx.stm != nil && !tx.done {
		tx = new(Tx)
	}
	th.rec.Pin() // read-side critical section: Begin → finish
	if tx.meta != nil {
		th.rec.RetireMeta(tx.meta) // previous transaction finished
	}
	tx.stm = th.stm
	tx.th = th
	tx.meta = th.rec.NewMeta(kind, th.id)
	tx.ro = readOnly
	tx.ct = th.takeCT()
	clear(tx.reads) // release the previous transaction's objects/values
	clear(tx.writes)
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.windex.Reset()
	tx.rindex.Reset()
	tx.allCurrent = true
	if log := th.stm.log; log != nil {
		// lb bounds the validation window: any commit that could install
		// a successor to a version this transaction reads as current
		// claims its log tick after the read (its writer was not yet
		// committing when the read stabilized), hence after this load.
		tx.lb = log.Claimed()
	}
	tx.done = false
	return tx
}

// takeCT returns a tentative commit timestamp initialized from VC_p. It
// reuses a buffer recovered from an aborted predecessor when one is
// available; committed timestamps escape into installed versions and
// VC_p and are never reused.
func (th *Thread) takeCT() vclock.TS {
	if buf := th.ctbuf; len(buf) == len(th.vc) {
		th.ctbuf = nil
		copy(buf, th.vc)
		return buf
	}
	return th.vc.Clone()
}

type readEntry struct {
	obj *Object
	ver *Version
}

type writeEntry struct {
	obj  *Object
	base *Version // version current at open time; its Next is set on install
	val  any
}

// Tx is a CS-STM transaction.
type Tx struct {
	stm  *STM
	th   *Thread
	meta *core.TxMeta
	ro   bool

	// ct is the tentative commit timestamp T.ct.
	ct vclock.TS

	reads  []readEntry
	writes []writeEntry
	windex core.SmallIndex
	// rindex deduplicates reads per object — a re-read returns the
	// version chosen first rather than re-picking — and doubles as the
	// commit log's read-footprint membership test.
	rindex core.SmallIndex
	// scratch is pick's reusable fold buffer (multi-version mode only).
	scratch vclock.TS
	// lb is the commit-log tick observed at Begin; the commit-time fast
	// path scans (lb, now].
	lb uint64
	// allCurrent records that every read returned the object's current
	// version. A multi-version pick of an older version may carry a
	// pre-existing successor the log window cannot see, so such
	// transactions always validate the slow way.
	allCurrent bool
	done       bool
}

// Meta exposes the shared descriptor.
func (tx *Tx) Meta() *core.TxMeta { return tx.meta }

// Done reports whether the transaction has finished and its descriptor
// may be recycled. A nil receiver counts as done.
func (tx *Tx) Done() bool { return tx == nil || tx.done }

// CT returns a copy of the tentative commit timestamp (tests).
func (tx *Tx) CT() vclock.TS { return tx.ct.Clone() }

// CTInto copies the tentative commit timestamp into dst, reusing dst's
// storage when it is wide enough, and returns the result (the zero-alloc
// sibling of CT).
func (tx *Tx) CTInto(dst vclock.TS) vclock.TS { return tx.ct.CopyInto(dst) }

// Watches appends the transaction's read footprint to buf as (object,
// read-version Seq) pairs and returns the extended slice. It must be
// called before the descriptor is recycled by the thread's next Begin.
func (tx *Tx) Watches(buf []core.Watch) []core.Watch {
	for i := range tx.reads {
		r := &tx.reads[i]
		buf = append(buf, core.Watch{ID: r.obj.ID(), Seq: r.ver.Seq, Obj: r.obj})
	}
	return buf
}

// WatchesStale reports whether any watched object has advanced past the
// Seq recorded at read time. CS-STM never recycles version nodes (only
// descriptors — their timestamps escape into VC_p), so reading the
// current version's Seq needs no epoch pin.
func (tx *Tx) WatchesStale(ws []core.Watch) bool {
	for i := range ws {
		if ws[i].Obj.(*Object).cur.Load().Seq != ws[i].Seq {
			return true
		}
	}
	return false
}

// stabilize waits until o has no committing writer, so that versions from
// in-flight multi-object installs are never observed partially.
func (tx *Tx) stabilize(o *Object) {
	for round := 0; ; round++ {
		w := o.wr.Load()
		if w == nil || w == tx.meta || w.Status() != core.StatusCommitting {
			return
		}
		cm.Backoff(round)
	}
}

// awaitInstall waits until o has no installing writer, so validation
// sees the successor an in-flight install is about to attach. Writers
// still validating are not waited for: the successor they may install
// carries a tick stamped after this check, which tx.ct cannot contain,
// so it can never fail the successor test. Waiting for them instead
// would let two committers that each read what the other writes wait
// on each other forever.
func (tx *Tx) awaitInstall(o *Object) {
	for round := 0; ; round++ {
		w := o.wr.Load()
		if w == nil || w == tx.meta || w.Status() != core.StatusCommitting || !w.Installing() {
			return
		}
		cm.Backoff(round)
	}
}

// finish marks the transaction done and leaves the epoch critical
// section entered by Begin.
func (tx *Tx) finish() {
	tx.done = true
	tx.th.rec.Unpin()
}

func (tx *Tx) fail(err error) error {
	tx.meta.TryAbort()
	tx.releaseLocks()
	tx.finish()
	tx.th.ctbuf = tx.ct // never published: recover the buffer
	tx.ct = nil
	tx.th.shard.Inc(cntAborts)
	return err
}

// Read opens o in read mode (Algorithm 1 lines 6-8, 16-17): the last
// committed version is returned, T.ct is raised to dominate its
// timestamp, and the read is recorded for commit-time validation.
func (tx *Tx) Read(o *Object) (any, error) {
	if tx.done {
		return nil, core.ErrTxDone
	}
	if tx.meta.Status() == core.StatusAborted {
		return nil, tx.fail(core.ErrAborted)
	}
	if i, ok := tx.windex.Get(o.ID()); ok {
		return tx.writes[i].val, nil
	}
	if i, ok := tx.rindex.Get(o.ID()); ok {
		return tx.reads[i].ver.Value, nil
	}
	tx.meta.Prio.Add(1)
	tx.stabilize(o)
	cur := o.cur.Load()
	v := tx.pick(cur)
	if v != cur {
		tx.allCurrent = false
	}
	tx.ct.MaxInto(v.CT)
	tx.rindex.Put(o.ID(), len(tx.reads))
	tx.reads = append(tx.reads, readEntry{obj: o, ver: v})
	return v.Value, nil
}

// pick returns the version of o the transaction reads. With a single
// retained version this is the current version (Algorithm 1 line 7).
// With Config.Versions > 1 it implements §4.1 footnote 1: walk the
// retained chain from newest to oldest and take the first version whose
// adoption keeps the transaction validatable — folding the candidate's
// timestamp into T.ct must not make the successor of the candidate, or
// of any version already read, precede the raised T.ct. The current
// version has no successor yet, so when every candidate fails the fold
// check the current version is still returned and the conflict is left
// to commit-time validation (it may resolve if the blocking reads are
// upgraded to writes of the same objects).
func (tx *Tx) pick(cur *Version) *Version {
	if tx.stm.cfg.Versions <= 1 {
		return cur
	}
	if tx.scratch == nil {
		tx.scratch = make(vclock.TS, len(tx.ct))
	}
	for v := cur; v != nil; v = v.prev.Load() {
		copy(tx.scratch, tx.ct)
		tx.scratch.MaxInto(v.CT)
		if tx.admissible(v, tx.scratch, !tx.scratch.Equal(tx.ct)) {
			return v
		}
	}
	return cur
}

// admissible reports whether reading v — raising T.ct to ct — leaves
// every read (v itself and all previous reads) passing the Algorithm 1
// line 22 validation test at the raised timestamp. When the fold did not
// raise T.ct (raised == false) previous reads were already checked at
// this timestamp, so only v's own successor needs inspection — the
// common case on quiescent objects, keeping long scans near-linear.
func (tx *Tx) admissible(v *Version, ct vclock.TS, raised bool) bool {
	if s := v.next.Load(); s != nil && s.CT.LessEq(ct) {
		return false
	}
	if !raised {
		return true
	}
	for _, r := range tx.reads {
		if s := r.ver.next.Load(); s != nil && s.CT.LessEq(ct) {
			return false
		}
	}
	return true
}

// Write opens o in write mode (Algorithm 1 lines 9-15): a single writer
// is enforced, conflicts are arbitrated by the contention manager, and
// the tentative value is buffered until commit.
func (tx *Tx) Write(o *Object, val any) error {
	if tx.done {
		return core.ErrTxDone
	}
	if tx.ro {
		return core.ErrReadOnly
	}
	if tx.meta.Status() == core.StatusAborted {
		return tx.fail(core.ErrAborted)
	}
	if i, ok := tx.windex.Get(o.ID()); ok {
		tx.writes[i].val = val
		return nil
	}
	tx.meta.Prio.Add(1)

	for round := 0; ; round++ {
		if tx.meta.Status() == core.StatusAborted {
			return tx.fail(core.ErrAborted)
		}
		w := o.wr.Load()
		switch {
		case w == nil:
			if o.wr.CompareAndSwap(nil, tx.meta) {
				tx.recordWrite(o, val)
				return nil
			}
		case w == tx.meta:
			tx.recordWrite(o, val)
			return nil
		case w.Status().Terminal():
			if o.wr.CompareAndSwap(w, tx.meta) {
				tx.recordWrite(o, val)
				return nil
			}
		default:
			if !cm.Resolve(tx.stm.cfg.CM, tx.meta, w) {
				tx.th.shard.Inc(cntConflicts)
				return tx.fail(core.ErrAborted)
			}
		}
		cm.Backoff(round)
	}
}

func (tx *Tx) recordWrite(o *Object, val any) {
	v := o.cur.Load()
	tx.ct.MaxInto(v.CT)
	tx.windex.Put(o.ID(), len(tx.writes))
	tx.writes = append(tx.writes, writeEntry{obj: o, base: v, val: val})
}

// validate implements Algorithm 1 lines 20-26: the transaction aborts if
// any version it read has a successor whose timestamp precedes (or
// equals) T.ct — the transaction would causally both precede and follow
// the successor's writer. Checking the immediate successor suffices:
// later successors dominate earlier ones, so any v_{i+k} ≼ T.ct implies
// v_{i+1} ≼ T.ct.
//
// The paper's test is strictly ≺; it assumes each object is opened
// exactly once, so a transaction never observes the successor of one of
// its own reads. Our API separates Read and Write, and a read-then-write
// upgrade that re-acquires the lock after an enemy commit folds the
// successor's timestamp into T.ct (making them equal). Committed
// timestamps are unique — each contains a fresh clock tick — so equality
// means T.ct absorbed the successor itself: a true conflict, hence ≼.
func (tx *Tx) validate() bool {
	for _, r := range tx.reads {
		tx.awaitInstall(r.obj)
		if succ := r.ver.next.Load(); succ != nil && succ.CT.LessEq(tx.ct) {
			return false
		}
	}
	return true
}

// Commit implements Algorithm 1 lines 27-32: validate, tick the thread's
// vector-clock entry, install tentative versions, and remember the commit
// timestamp in VC_p.
func (tx *Tx) Commit() error {
	if tx.done {
		return core.ErrTxDone
	}
	if tx.meta.Status() == core.StatusAborted {
		return tx.fail(core.ErrAborted)
	}
	if !tx.meta.CASStatus(core.StatusActive, core.StatusCommitting) {
		return tx.fail(core.ErrAborted)
	}
	// Commit-log fast path: when every read returned a current version
	// and no commit claimed between Begin and here touched the read
	// footprint, no read version can have acquired a successor whose
	// timestamp our (frozen) T.ct dominates — the successor walk is
	// trivially clean. Commits claimed after the window bound carry a
	// fresh clock tick T.ct cannot contain, so missing them is harmless.
	fastOK := false
	log := tx.stm.log
	if log != nil && tx.allCurrent {
		switch log.Check(tx.lb, log.Claimed(), &tx.rindex) {
		case core.LogClear:
			fastOK = true
		case core.LogWrapped:
			tx.th.shard.Inc(cntLogWraps)
		}
	}
	if log != nil && len(tx.writes) > 0 {
		// Claim our own tick and publish the write set before validating
		// and installing, so concurrent fast paths account for our
		// in-flight installs (an abort below leaves a harmless false
		// positive behind).
		ids := tx.th.idbuf[:0]
		for i := range tx.writes {
			ids = append(ids, tx.writes[i].obj.ID())
		}
		tx.th.idbuf = ids
		log.Append(ids)
	}
	if fastOK {
		if tx.stm.cfg.CrossCheck && !tx.validate() {
			panic("cstm: commit-log fast path admitted a commit full validation rejects")
		}
		tx.th.shard.Inc(cntFastValidations)
	} else if !tx.validate() {
		tx.meta.CASStatus(core.StatusCommitting, core.StatusAborted)
		tx.releaseLocks()
		tx.finish()
		tx.th.ctbuf = tx.ct
		tx.ct = nil
		tx.th.shard.Inc(cntAborts)
		tx.th.shard.Inc(cntConflicts)
		return core.ErrConflict
	}
	if len(tx.writes) > 0 {
		// Increment p's component with a global get-and-increment so that
		// threads sharing a plausible-clock entry never generate the same
		// timestamp (§4.3). Stamp also advances the Lamport entry of a
		// comb clock.
		tx.meta.SetInstalling()
		tx.stm.clock.Stamp(tx.th.id, tx.ct)
		for _, w := range tx.writes {
			nv := &Version{Value: w.val, CT: tx.ct, Seq: w.base.Seq + 1, WriterID: tx.meta.ID}
			if tx.stm.cfg.Versions > 1 {
				nv.prev.Store(w.base)
			}
			w.base.next.Store(nv)
			w.obj.cur.Store(nv)
			trim(nv, tx.stm.cfg.Versions)
		}
	}
	tx.meta.CASStatus(core.StatusCommitting, core.StatusCommitted)
	tx.releaseLocks()
	tx.finish()
	if lot := tx.stm.cfg.Lot; lot != nil {
		for _, w := range tx.writes {
			lot.Wake(w.obj.ID())
		}
	}
	if !tx.th.vcEscaped {
		// The displaced vc buffer was never published; recover it.
		tx.th.ctbuf = tx.th.vc
	}
	tx.th.vc = tx.ct // VC_p ← T.ct (line 31)
	// An update commit's ct escaped into the installed versions above; a
	// write-free commit's ct stayed thread-private.
	tx.th.vcEscaped = len(tx.writes) > 0
	tx.th.shard.Inc(cntCommits)
	return nil
}

// Abort aborts the transaction explicitly; no-op when already finished.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.meta.TryAbort()
	tx.releaseLocks()
	tx.finish()
	tx.th.ctbuf = tx.ct
	tx.ct = nil
	tx.th.shard.Inc(cntAborts)
}

// trim severs the retained version chain keep versions behind nv, so at
// most keep versions stay reachable through Prev. Concurrent pickers may
// observe the chain shortening mid-walk; they simply see fewer
// candidates, which is always safe.
func trim(nv *Version, keep int) {
	node := nv
	for i := 1; i < keep; i++ {
		p := node.prev.Load()
		if p == nil {
			return
		}
		node = p
	}
	node.prev.Store(nil)
}

func (tx *Tx) releaseLocks() {
	for _, w := range tx.writes {
		w.obj.wr.CompareAndSwap(tx.meta, nil)
	}
}
