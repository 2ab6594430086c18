// Package sistm implements SI-STM, a multi-version snapshot-isolation
// STM on a scalar time base. The paper positions snapshot isolation [1]
// as the closest database criterion to causal serializability (§4.1:
// "causal serializability provides semantics comparable to snapshot
// isolation"); SI-STM makes that comparison concrete. It is a comparator
// substrate, not one of the paper's contributions.
//
// Under snapshot isolation a transaction reads from a fixed snapshot
// taken at its start and writes are governed by first-committer-wins:
// a transaction aborts iff another transaction that committed between
// its snapshot and its commit wrote an object it also writes. Reads are
// never validated — read/write conflicts (and hence write skew) are
// invisible, which is exactly what distinguishes SI from serializability
// and linearizability.
//
// The implementation reuses the scalar-clock object header of
// internal/core (version chains + writer ownership) and enforces
// first-committer-wins eagerly: write ownership is acquired at open and
// the object's current version is checked against the snapshot time once
// the lock is held; holding the lock until commit then guarantees no
// concurrent version can be installed, so commit needs no validation at
// all. This mirrors the first-updater-wins realization of SI used by
// production MVCC systems.
package sistm

import (
	"sync/atomic"

	"tbtm/internal/clock"
	"tbtm/internal/cm"
	"tbtm/internal/core"
	"tbtm/internal/epoch"
	"tbtm/internal/stats"
)

// Config parameterizes an SI-STM instance.
type Config struct {
	// Clock is the scalar time base. Nil means a fresh shared counter.
	Clock clock.TimeBase
	// CM arbitrates write/write conflicts between two active
	// transactions. Nil means Polite.
	CM cm.Manager
	// Versions is the per-object retention depth (default 8). Snapshot
	// reads need history: a depth of 1 makes any overwritten read fail
	// with ErrSnapshotUnavailable.
	Versions int
	// Lot, when non-nil, receives a wakeup for every object an update
	// commit installs a version into, unblocking transactions parked in
	// the facade's Retry. Snapshot-isolation reads are invisible and
	// normally leave no trace, so a non-nil Lot additionally makes every
	// transaction record a minimal (object, Seq) read footprint for the
	// blocking layer to watch. Nil keeps reads trace-free and the commit
	// path wake-free.
	Lot *core.ParkingLot
	// CommitLog sizes the global commit log (see lsa.Config.CommitLog: 0
	// default-on, >0 explicit size, <0 off; armed only on strictly
	// commit-counting time bases). With the log on, SI gains snapshot
	// advance: a transaction that would fail with ErrSnapshotUnavailable
	// or lose first-committer-wins first tries to move its snapshot
	// forward to now, which is sound exactly when no object it has read
	// changed in (st, now] — the log window proves that in O(commits in
	// the window). Every read then logs an (object, Seq) pair, as under
	// a parking lot.
	CommitLog int
	// CrossCheck makes every log-clear advance re-verify each read
	// against the object chains and panic on disagreement (conformance
	// harness only).
	CrossCheck bool
}

// Stats is a snapshot of an instance's cumulative counters.
type Stats struct {
	Commits      uint64 // transactions committed
	Aborts       uint64 // transactions aborted, any reason
	Conflicts    uint64 // first-committer-wins losses and lost arbitrations
	OldVersions  uint64 // reads served by a non-current version
	SnapshotMiss uint64 // aborts because no retained version was old enough
	Advances     uint64 // successful snapshot advances (commit log on)
	AdvancesFast uint64 // advances proven by the log window alone
	AdvancesFull uint64 // advances that walked the recorded reads
	LogWraps     uint64 // fast-path fallbacks because the log window wrapped
}

// Counter slots within a thread's stats shard.
const (
	cntCommits = iota
	cntAborts
	cntConflicts
	cntOldVersions
	cntSnapshotMiss
	cntAdvances
	cntAdvancesFast
	cntAdvancesFull
	cntLogWraps
)

// STM is an SI-STM instance. Objects and threads are bound to the
// instance that created them.
type STM struct {
	cfg Config
	// log is the global commit log, nil when disabled or the time base
	// is not strictly commit-counting.
	log *core.CommitLog

	nextThread atomic.Int64

	// shards holds the per-thread counter shards; see internal/stats.
	shards stats.Set

	// domain is the epoch-based reclamation domain gating version and
	// descriptor reuse (see internal/epoch).
	domain epoch.Domain
}

// New returns an SI-STM instance, applying defaults for zero fields.
func New(cfg Config) *STM {
	if cfg.Clock == nil {
		cfg.Clock = clock.NewCounter()
	}
	if cfg.CM == nil {
		cfg.CM = &cm.Polite{}
	}
	if cfg.Versions < 1 {
		cfg.Versions = 8
	}
	s := &STM{cfg: cfg}
	if _, strict := cfg.Clock.(clock.StrictCommitCounting); strict && cfg.CommitLog >= 0 {
		s.log = core.NewCommitLog(cfg.CommitLog)
	}
	return s
}

// Log returns the commit log, or nil when disabled (tests).
func (s *STM) Log() *core.CommitLog { return s.log }

// Config returns the effective configuration.
func (s *STM) Config() Config { return s.cfg }

// Clock returns the instance's time base.
func (s *STM) Clock() clock.TimeBase { return s.cfg.Clock }

// NewObject allocates a transactional object with the given initial
// value and the instance's retention depth.
func (s *STM) NewObject(initial any) *core.Object {
	return core.NewObject(initial, s.cfg.Versions)
}

// NewThread returns a handle for one worker goroutine.
func (s *STM) NewThread() *Thread {
	th := &Thread{stm: s, id: int(s.nextThread.Add(1) - 1), shard: s.shards.NewShard()}
	th.rec.Init(&s.domain)
	return th
}

// Stats returns a snapshot of the cumulative counters, aggregated across
// the per-thread shards.
func (s *STM) Stats() Stats {
	c := s.shards.Snapshot()
	return Stats{
		Commits:      c[cntCommits],
		Aborts:       c[cntAborts],
		Conflicts:    c[cntConflicts],
		OldVersions:  c[cntOldVersions],
		SnapshotMiss: c[cntSnapshotMiss],
		Advances:     c[cntAdvances],
		AdvancesFast: c[cntAdvancesFast],
		AdvancesFull: c[cntAdvancesFull],
		LogWraps:     c[cntLogWraps],
	}
}

// Thread is a per-goroutine handle. It owns a stats shard and a reusable
// transaction descriptor, so the begin→commit hot path performs no
// descriptor allocation.
type Thread struct {
	stm   *STM
	id    int
	shard *stats.Shard
	tx    Tx            // reusable descriptor, recycled by Begin once finished
	rec   core.Recycler // epoch-gated version/descriptor pools
	idbuf []uint64      // reusable write-set ID buffer for commit-log publication
}

// ID returns the thread's index in the time base.
func (th *Thread) ID() int { return th.id }

// STM returns the owning instance.
func (th *Thread) STM() *STM { return th.stm }

// Begin starts a transaction whose snapshot is the time base's current
// value. kind feeds the contention manager; readOnly rejects writes.
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
	tx.st = th.stm.cfg.Clock.Now(th.id)
	tx.ct = 0
	clear(tx.writes) // release the previous transaction's objects/values
	clear(tx.reads)
	tx.writes = tx.writes[:0]
	tx.reads = tx.reads[:0]
	tx.windex.Reset()
	tx.rindex.Reset()
	tx.done = false
	return tx
}

// writeEntry buffers one tentative update.
type writeEntry struct {
	obj *core.Object
	val any
}

// readEntry records one read for the blocking layer and for snapshot
// advance (maintained when the instance has a parking lot or a commit
// log): the object, the Seq of the version the snapshot served, and its
// value so re-reads are answered without re-walking the chain. Plain SI
// without either feature keeps reads trace-free.
type readEntry struct {
	obj *core.Object
	seq uint64
	val any
}

// Tx is an SI-STM transaction. A Tx is used by a single goroutine; after
// Commit or Abort it must not be reused.
type Tx struct {
	stm  *STM
	th   *Thread
	meta *core.TxMeta
	ro   bool

	// st is the snapshot time: every read observes the version current
	// at st. Unlike LSA there is no extension — the snapshot is fixed.
	st uint64
	// ct is the commit time, set by Commit for update transactions.
	ct uint64

	writes []writeEntry
	// reads is the read-footprint log, maintained when the instance has
	// a parking lot (see Config.Lot) or a commit log (snapshot advance
	// re-validates against it).
	reads  []readEntry
	windex core.SmallIndex
	rindex core.SmallIndex // object ID → index into reads (footprint membership)
	done   bool
}

// Meta exposes the shared descriptor.
func (tx *Tx) Meta() *core.TxMeta { return tx.meta }

// Done reports whether the transaction has finished and its descriptor
// may be recycled. A nil receiver counts as done.
func (tx *Tx) Done() bool { return tx == nil || tx.done }

// SnapshotTime returns the fixed snapshot time.
func (tx *Tx) SnapshotTime() uint64 { return tx.st }

// CommitTime returns the commit time, or the snapshot time for
// transactions that committed without writes. Valid after Commit.
func (tx *Tx) CommitTime() uint64 {
	if tx.ct != 0 {
		return tx.ct
	}
	return tx.st
}

// stabilize waits until o has no committing writer, so in-flight
// multi-object installs (whose commit time may precede our snapshot) are
// never observed partially. It returns the current writer.
func (tx *Tx) stabilize(o *core.Object) *core.TxMeta {
	for round := 0; ; round++ {
		w := o.Writer()
		if w == nil || w == tx.meta {
			return w
		}
		if w.Status() == core.StatusCommitting {
			cm.Backoff(round)
			continue
		}
		return w
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
	tx.th.shard.Inc(cntAborts)
	return err
}

// Read returns the version of o current at the snapshot time. Reads are
// invisible and never validated; they can only fail when the chain no
// longer retains a version old enough — and with the commit log on, the
// transaction first tries to advance its snapshot to now, which often
// brings the needed version back into the retained window.
func (tx *Tx) Read(o *core.Object) (any, error) {
	if tx.done {
		return nil, core.ErrTxDone
	}
	if tx.meta.Status() == core.StatusAborted {
		return nil, tx.fail(core.ErrAborted)
	}
	if i, ok := tx.windex.Get(o.ID()); ok {
		return tx.writes[i].val, nil // read-own-writes
	}
	if i, ok := tx.rindex.Get(o.ID()); ok {
		// Re-read: the snapshot only ever advances past changes to
		// objects outside the footprint, so the first-read value is
		// still the one current at st.
		return tx.reads[i].val, nil
	}
	tx.meta.Prio.Add(1)
	tx.stabilize(o)
	v := o.FindAt(tx.st)
	if v == nil && tx.tryAdvance() {
		tx.stabilize(o)
		v = o.FindAt(tx.st)
	}
	if v == nil {
		tx.th.shard.Inc(cntSnapshotMiss)
		return nil, tx.fail(core.ErrSnapshotUnavailable)
	}
	if v != o.Current() {
		tx.th.shard.Inc(cntOldVersions)
	}
	if tx.tracking() {
		tx.rindex.Put(o.ID(), len(tx.reads))
		tx.reads = append(tx.reads, readEntry{obj: o, seq: v.Seq, val: v.Value})
	}
	return v.Value, nil
}

// tracking reports whether reads are footprint-logged: for the blocking
// layer (parking lot) and/or for snapshot advance (commit log).
func (tx *Tx) tracking() bool {
	return tx.stm.cfg.Lot != nil || tx.stm.log != nil
}

// tryAdvance attempts to move the snapshot time forward to now. The move
// is sound iff no object the transaction has read changed in (st, now]:
// every earlier read then still observes the newest version at the new
// snapshot time, and objects not yet read are simply served at the later
// time. Write-opened objects cannot have changed — their writer locks
// have been held since open. The common proof is the commit-log window;
// a hit or wrap falls back to walking the recorded reads.
func (tx *Tx) tryAdvance() bool {
	log := tx.stm.log
	if log == nil {
		return false
	}
	now := tx.stm.cfg.Clock.Now(tx.th.id)
	if now <= tx.st {
		return false
	}
	verdict := log.Check(tx.st, now, &tx.rindex)
	if verdict == core.LogWrapped {
		tx.th.shard.Inc(cntLogWraps)
	}
	if verdict == core.LogClear {
		if tx.stm.cfg.CrossCheck && !tx.readsNewestAt(now) {
			panic("sistm: commit-log fast path admitted an advance the read walk rejects")
		}
		tx.st = now
		tx.th.shard.Inc(cntAdvances)
		tx.th.shard.Inc(cntAdvancesFast)
		return true
	}
	// Slow path: each recorded read must still be the object's newest
	// version (conservative — a version installed after now also blocks
	// the advance, costing only a missed opportunity, never soundness).
	for i := range tx.reads {
		r := &tx.reads[i]
		tx.stabilize(r.obj)
		if r.obj.Current().Seq != r.seq {
			return false
		}
	}
	tx.st = now
	tx.th.shard.Inc(cntAdvances)
	tx.th.shard.Inc(cntAdvancesFull)
	return true
}

// readsNewestAt reports whether every recorded read is still the newest
// version at time t (the cross-check twin of the log window: exact, not
// conservative). A read whose chain was truncated past recognition is
// skipped — nothing can be asserted about it.
func (tx *Tx) readsNewestAt(t uint64) bool {
	for i := range tx.reads {
		r := &tx.reads[i]
		tx.stabilize(r.obj)
		if v := r.obj.FindAt(t); v != nil && v.Seq != r.seq {
			return false
		}
	}
	return true
}

// Watches appends the transaction's read footprint to buf as (object,
// read-version Seq) pairs and returns the extended slice. The footprint
// is recorded only on instances with a parking lot; elsewhere Watches
// returns buf unchanged and the facade falls back to polling.
func (tx *Tx) Watches(buf []core.Watch) []core.Watch {
	for i := range tx.reads {
		r := &tx.reads[i]
		buf = append(buf, core.Watch{ID: r.obj.ID(), Seq: r.seq, Obj: r.obj})
	}
	return buf
}

// WatchesStale reports whether any watched object has advanced past the
// Seq recorded at read time, re-entering the thread's epoch critical
// section for the duration of the check (see lsa.Tx.WatchesStale).
func (tx *Tx) WatchesStale(ws []core.Watch) bool {
	tx.th.rec.Pin()
	defer tx.th.rec.Unpin()
	return core.StaleScalar(ws)
}

// Write buffers an update of o to val. Ownership is acquired eagerly and
// first-committer-wins is enforced once the lock is held: if a version
// newer than the snapshot has been installed, a concurrent transaction
// committed first and we abort.
func (tx *Tx) Write(o *core.Object, val any) error {
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
		w := o.Writer()
		switch {
		case w == nil:
			if o.CASWriter(nil, tx.meta) {
				return tx.checkFirstCommitter(o, val)
			}
		case w == tx.meta:
			return tx.checkFirstCommitter(o, val)
		case w.Status().Terminal():
			if o.CASWriter(w, tx.meta) {
				return tx.checkFirstCommitter(o, val)
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

// checkFirstCommitter runs with write ownership of o held. A current
// version newer than the snapshot means a concurrent transaction
// committed an update to o after we took our snapshot: under
// first-committer-wins we lose — unless the snapshot can advance past
// that commit (possible exactly when nothing we read changed), which
// dissolves the concurrency the rule exists to police. Ownership is held
// from here to commit, so no later version can appear and commit needs
// no re-check.
func (tx *Tx) checkFirstCommitter(o *core.Object, val any) error {
	if o.Current().TS > tx.st && !tx.tryAdvance() {
		tx.th.shard.Inc(cntConflicts)
		return tx.fail(core.ErrConflict)
	}
	if o.Current().TS > tx.st {
		// The advance moved st forward but not past this install (another
		// commit landed in between): still a first-committer loss.
		tx.th.shard.Inc(cntConflicts)
		return tx.fail(core.ErrConflict)
	}
	tx.windex.Put(o.ID(), len(tx.writes))
	tx.writes = append(tx.writes, writeEntry{obj: o, val: val})
	return nil
}

// Commit attempts to commit. Read-only (or write-free) transactions
// commit immediately: their snapshot is consistent by construction.
// Update transactions draw a commit time and install their writes; no
// validation is needed because first-committer-wins was enforced at
// open and ownership has been held since.
func (tx *Tx) Commit() error {
	if tx.done {
		return core.ErrTxDone
	}
	if tx.meta.Status() == core.StatusAborted {
		return tx.fail(core.ErrAborted)
	}
	if len(tx.writes) == 0 {
		if !tx.meta.CASStatus(core.StatusActive, core.StatusCommitted) {
			return tx.fail(core.ErrAborted)
		}
		tx.finish()
		tx.th.shard.Inc(cntCommits)
		return nil
	}
	if !tx.meta.CASStatus(core.StatusActive, core.StatusCommitting) {
		return tx.fail(core.ErrAborted)
	}
	tx.ct = tx.stm.cfg.Clock.CommitTime(tx.th.id)
	tx.meta.SetCommitTick(tx.ct)
	// Publish the write set before installing, so snapshot advances
	// scanning past tx.ct find the record instead of missing the
	// in-flight installs (see lsa.Tx.Commit).
	if log := tx.stm.log; log != nil {
		ids := tx.th.idbuf[:0]
		for i := range tx.writes {
			ids = append(ids, tx.writes[i].obj.ID())
		}
		tx.th.idbuf = ids
		log.Publish(tx.ct, ids)
	}
	for _, w := range tx.writes {
		w.obj.InstallRecycled(&tx.th.rec, w.val, tx.ct, tx.meta.ID, 0)
	}
	tx.meta.CASStatus(core.StatusCommitting, core.StatusCommitted)
	tx.releaseLocks()
	tx.finish()
	if lot := tx.stm.cfg.Lot; lot != nil {
		for _, w := range tx.writes {
			lot.Wake(w.obj.ID())
		}
	}
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
	tx.th.shard.Inc(cntAborts)
}

func (tx *Tx) releaseLocks() {
	for _, w := range tx.writes {
		w.obj.ReleaseWriter(tx.meta)
	}
}
