// Package lsa implements LSA-STM, the multi-version time-based STM of
// Riegel, Felber and Fetzer (DISC 2006 [8]) that the paper uses both as
// its linearizable baseline and as the engine for Z-STM's short
// transactions (§5.1).
//
// The algorithm follows the TBTM template of paper §2: transactions build
// a consistent snapshot at a scalar snapshot time, extend the snapshot's
// validity on demand by revalidating the read set, buffer updates locally
// under eagerly-acquired write ownership, and validate the read set at an
// atomically acquired commit time. Multi-version objects let read-only
// transactions fall back to old versions instead of aborting.
//
// Two configuration points reproduce the paper's variants:
//
//   - Versions=1 and NoExtension=true yield the lean single-version TBTM
//     of TL2 (paper §3).
//   - NoReadSets=true makes declared read-only transactions skip read-set
//     maintenance entirely and read at a fixed snapshot time, the
//     "LSA-STM (no readsets)" series of Figure 6.
package lsa

import (
	"sync/atomic"

	"tbtm/internal/clock"
	"tbtm/internal/cm"
	"tbtm/internal/core"
	"tbtm/internal/epoch"
	"tbtm/internal/stats"
)

// Config parameterizes an STM instance.
type Config struct {
	// Clock is the scalar time base. Nil means a fresh shared counter.
	Clock clock.TimeBase
	// CM arbitrates write/write conflicts. Nil means Polite.
	CM cm.Manager
	// Versions is the per-object retention depth. Values below 1 mean the
	// default of 8; exactly 1 gives single-version (TL2-like) objects.
	Versions int
	// NoExtension disables snapshot extension (TL2-like).
	NoExtension bool
	// NoReadSets makes read-only transactions skip read-set maintenance
	// and read at their fixed start-time snapshot (Figure 6's optimized
	// LSA-STM variant).
	NoReadSets bool
	// GuardLongWriters makes reads arbitrate with active writers whose
	// kind is Long. Z-STM sets this: long transactions skip commit-time
	// validation, so a short transaction must not read around an active
	// long writer (see DESIGN.md §5). Plain LSA-STM leaves it off —
	// invisible reads plus commit validation already give
	// linearizability.
	GuardLongWriters bool
	// ValidationFastPath enables the RSTM-style commit fast path
	// (paper §3): when the time base is strictly commit-counting and the
	// acquired commit time is exactly the snapshot time plus one, no
	// other transaction committed in between and per-object read-set
	// validation is skipped. Ignored (with no loss of correctness) on
	// time bases that do not implement clock.StrictCommitCounting.
	ValidationFastPath bool
	// Lot, when non-nil, receives a wakeup for every object an update
	// commit installs a version into, unblocking transactions parked in
	// the facade's Retry. Nil keeps the commit path wake-free.
	Lot *core.ParkingLot
	// CommitLog sizes the global commit log backing O(1) snapshot
	// extension: every update commit publishes (commit time, written
	// object IDs) into a fixed ring, and tryExtend validates by scanning
	// only the log window between the snapshot and the target time
	// against the transaction's read footprint, falling back to the full
	// read-set walk when the window wrapped or hit the footprint. 0
	// enables the log at core.DefaultCommitLogSlots, positive values set
	// the ring size, and negative values disable the log. The log
	// requires a dense tick sequence, so it is only armed on strictly
	// commit-counting time bases (clock.StrictCommitCounting); elsewhere
	// it is ignored with no loss of correctness, like ValidationFastPath.
	CommitLog int
	// CrossCheck makes every commit-log fast-path decision re-run the
	// full read-set walk and panic if the two disagree (the log admitted
	// an extension full validation would reject). Test harness only: the
	// conformance fuzzer keeps it on so the torture workloads prove the
	// fast path sound on every extension.
	CrossCheck bool
}

// Stats is a snapshot of an STM instance's cumulative counters.
type Stats struct {
	Commits         uint64 // transactions committed
	Aborts          uint64 // transactions aborted, any reason
	Conflicts       uint64 // aborts due to validation failure or lost arbitration
	Extensions      uint64 // successful snapshot extensions
	OldVersions     uint64 // reads served by a non-current version
	SnapshotMiss    uint64 // aborts because no retained version was old enough
	FastValidations uint64 // commits that skipped read-set validation (fast path)
	ExtensionsFast  uint64 // extensions validated by the commit-log window alone
	ExtensionsFull  uint64 // extensions that walked the full read set
	LogWraps        uint64 // fast-path fallbacks because the log window wrapped
}

// Counter slots within a thread's stats shard.
const (
	cntCommits = iota
	cntAborts
	cntConflicts
	cntExtensions
	cntOldVersions
	cntSnapshotMiss
	cntFastValidations
	cntExtensionsFast
	cntExtensionsFull
	cntLogWraps
)

// STM is an LSA-STM instance. Create one with New; objects and threads
// are bound to the instance that created them.
type STM struct {
	cfg Config
	// fastOK caches whether the fast path is usable: configured on and
	// running on a strictly commit-counting time base.
	fastOK bool
	// log is the global commit log, nil when disabled (Config.CommitLog
	// < 0) or when the time base is not strictly commit-counting.
	log *core.CommitLog

	nextThread atomic.Int64

	// shards holds the per-thread counter shards; see internal/stats.
	shards stats.Set

	// domain is the epoch-based reclamation domain: threads pin around
	// every transaction so retired versions and descriptors are reused
	// only after their grace period (see internal/epoch).
	domain epoch.Domain
}

// New returns an STM instance with the given configuration, applying
// defaults for zero fields.
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
	_, strict := cfg.Clock.(clock.StrictCommitCounting)
	s := &STM{cfg: cfg, fastOK: cfg.ValidationFastPath && strict}
	if cfg.CommitLog >= 0 && strict {
		s.log = core.NewCommitLog(cfg.CommitLog)
	}
	return s
}

// Log returns the commit log, or nil when disabled. Z-STM's long
// transactions commit through the same time base and must publish their
// write sets here so that short-transaction extensions account for them.
func (s *STM) Log() *core.CommitLog { return s.log }

// Config returns the effective configuration.
func (s *STM) Config() Config { return s.cfg }

// Clock returns the instance's time base (shared with Z-STM wrappers).
func (s *STM) Clock() clock.TimeBase { return s.cfg.Clock }

// NewObject allocates a transactional object with the given initial value
// and the instance's retention depth.
func (s *STM) NewObject(initial any) *core.Object {
	return core.NewObject(initial, s.cfg.Versions)
}

// NewThread returns a handle for one worker goroutine. Handles carry the
// per-thread state of the paper's algorithms and must not be shared.
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
		Commits:         c[cntCommits],
		Aborts:          c[cntAborts],
		Conflicts:       c[cntConflicts],
		Extensions:      c[cntExtensions],
		OldVersions:     c[cntOldVersions],
		SnapshotMiss:    c[cntSnapshotMiss],
		FastValidations: c[cntFastValidations],
		ExtensionsFast:  c[cntExtensionsFast],
		ExtensionsFull:  c[cntExtensionsFull],
		LogWraps:        c[cntLogWraps],
	}
}

// Thread is a per-goroutine handle. Besides the algorithm's per-thread
// state it owns a stats shard and a reusable transaction descriptor, so
// the begin→commit hot path performs no descriptor allocation.
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

// Recycler exposes the thread's reclamation handle (Z-STM's long
// transactions share it).
func (th *Thread) Recycler() *core.Recycler { return &th.rec }

// STM returns the owning instance.
func (th *Thread) STM() *STM { return th.stm }

// Begin starts a transaction. kind is the short/long classification used
// by contention managers; readOnly declares that the transaction will not
// write, enabling the no-readset fast path and old-version fallbacks.
//
// Begin may recycle the thread's previous transaction descriptor: a *Tx
// is invalid after Commit or Abort and must not be retained across the
// next Begin on the same thread.
func (th *Thread) Begin(kind core.TxKind, readOnly bool) *Tx {
	tx := &th.tx
	if tx.stm != nil && !tx.done {
		// The previous transaction is still in flight (a contract
		// violation, but tolerated): leave its descriptor alone. Note
		// that the abandoned transaction keeps the thread's epoch slot
		// pinned (nested) until it finishes; if it never does, the
		// domain stops advancing and every pool in the instance falls
		// back to plain GC allocation — a graceful performance
		// degradation, never a safety issue.
		tx = new(Tx)
	}
	tx.reset(th, kind, readOnly)
	return tx
}

// reset re-initializes a descriptor in place, retaining the read/write
// logs' backing arrays and the write index's storage from the previous
// transaction. The descriptor metadata comes from the thread's
// epoch-gated pool: TxMeta is published to other threads through object
// writer words and contention managers, so naive recycling would invite
// ABA races on lock stealing — the previous transaction's meta is
// therefore retired here and reused only after every pin concurrent
// with the retirement has been released (see core.Recycler).
func (tx *Tx) reset(th *Thread, kind core.TxKind, readOnly bool) {
	th.rec.Pin() // read-side critical section: Begin → finish
	if tx.meta != nil {
		// The previous transaction on this descriptor has finished and
		// released its writer words; its meta is unreachable for new
		// readers and may enter the reclamation pipeline.
		th.rec.RetireMeta(tx.meta)
	}
	tx.stm = th.stm
	tx.th = th
	tx.meta = th.rec.NewMeta(kind, th.id)
	tx.ro = readOnly
	tx.ub = th.stm.cfg.Clock.Now(th.id)
	clear(tx.reads) // release the previous transaction's objects/values
	clear(tx.writes)
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.windex.Reset()
	tx.rindex.Reset()
	tx.zone = 0
	tx.commitCheck = nil
	tx.done = false
	tx.retries = 0
}

// readEntry records one read: the version observed and its object.
type readEntry struct {
	obj *core.Object
	ver *core.Version
}

// writeEntry buffers one tentative update.
type writeEntry struct {
	obj *core.Object
	val any
}

// Tx is an LSA transaction. A Tx is used by a single goroutine; after
// Commit or Abort it is invalid — the next Begin on the owning thread
// recycles the descriptor in place.
type Tx struct {
	stm  *STM
	th   *Thread
	meta *core.TxMeta
	ro   bool

	// ub is the snapshot time: every read is consistent at time ub.
	ub uint64

	reads       []readEntry
	writes      []writeEntry
	windex      core.SmallIndex // object ID → index into writes
	rindex      core.SmallIndex // object ID → index into reads (footprint membership)
	zone        uint64          // z-linearizability zone tag for installs
	commitCheck func() error    // extra validation while committing
	done        bool
	retries     int
}

// SetZone tags the transaction's future installs with the given
// z-linearizability zone (used by Z-STM's short transactions so that an
// active long transaction can distinguish same-zone writes; plain LSA
// leaves it zero).
func (tx *Tx) SetZone(z uint64) { tx.zone = z }

// SetCommitCheck installs an additional validation hook, invoked during
// Commit after the transaction has entered the committing state (write
// locks held) and before its updates install. A non-nil error aborts the
// commit with that error. Z-STM uses it to re-validate zone membership of
// the write set: a long transaction may have stamped an object between
// the zone check at open and the lock acquisition, and once we are
// committing, the long's open-time arbitration serializes against us.
func (tx *Tx) SetCommitCheck(fn func() error) { tx.commitCheck = fn }

// Meta exposes the shared descriptor (used by Z-STM and tests).
func (tx *Tx) Meta() *core.TxMeta { return tx.meta }

// Done reports whether the transaction has finished (committed or
// aborted) and its descriptor may be recycled. A nil receiver counts as
// done, so a never-used handle slot can be recycled uniformly.
func (tx *Tx) Done() bool { return tx == nil || tx.done }

// ReadOnly reports whether the transaction was declared read-only.
func (tx *Tx) ReadOnly() bool { return tx.ro }

// SnapshotTime returns the current snapshot time ub.
func (tx *Tx) SnapshotTime() uint64 { return tx.ub }

// ReadSetSize returns the number of tracked read entries (zero on the
// no-readset fast path), exposed for tests and the ablation benches.
func (tx *Tx) ReadSetSize() int { return len(tx.reads) }

// Watches appends the transaction's read footprint to buf as (object,
// read-version Seq) pairs and returns the extended slice. It must be
// called before the descriptor is recycled by the thread's next Begin;
// the recorded Seqs stay meaningful afterwards (they are plain values,
// not version pointers). Declared read-only transactions on the
// no-readset fast path have no footprint to report.
func (tx *Tx) Watches(buf []core.Watch) []core.Watch {
	for i := range tx.reads {
		r := &tx.reads[i]
		buf = append(buf, core.Watch{ID: r.obj.ID(), Seq: r.ver.Seq, Obj: r.obj})
	}
	return buf
}

// WatchesStale reports whether any watched object has advanced past the
// Seq recorded at read time. It is called after the transaction
// finished, so it briefly re-enters the thread's epoch critical section:
// a version displaced after the pin cannot be recycled until the
// matching unpin, which keeps the Current().Seq read safe against the
// version pools.
func (tx *Tx) WatchesStale(ws []core.Watch) bool {
	tx.th.rec.Pin()
	defer tx.th.rec.Unpin()
	return core.StaleScalar(ws)
}

// noReadSetFastPath reports whether this transaction skips read tracking.
func (tx *Tx) noReadSetFastPath() bool { return tx.ro && tx.stm.cfg.NoReadSets }

// anyTick makes stabilize wait out every committing writer, whatever
// commit time its install lands under.
const anyTick = ^uint64(0)

// stabilize waits until o has no committing writer whose install (in
// flight) may land at or below time t, and returns the current writer:
// nil, tx's own meta, a still-active enemy, a terminal leftover, or a
// committer whose versions will all be newer than t.
//
// Skipping committers above t is what keeps commit-time validation
// deadlock-free: a committer validating at its own tick waits only on
// committers with smaller ticks (or, on a time base that shares ticks,
// the same tick and a smaller ID), so no two committers ever wait on
// each other. A committer that has not published its tick yet is still
// waited out; it is between two clock operations and waits on no one.
//
//tbtm:pinned
func (tx *Tx) stabilize(o *core.Object, t uint64) *core.TxMeta {
	for round := 0; ; round++ {
		w := o.Writer()
		if w == nil || w == tx.meta {
			return w
		}
		if w.Status() == core.StatusCommitting && tx.mayLandBy(w, t) {
			cm.Backoff(round)
			continue
		}
		return w
	}
}

// mayLandBy reports whether committer w's installs may get a commit
// time at or below t, so that tx has to see them before judging
// versions at t. When t is tx's own commit tick, a committer holding
// the same tick (possible only on a sharing time base) counts only if
// its ID is smaller, which orders the two committers consistently.
//
//tbtm:pinned
//tbtm:noalloc
func (tx *Tx) mayLandBy(w *core.TxMeta, t uint64) bool {
	wt := w.CommitTick()
	switch {
	case wt == 0 || wt < t:
		return true
	case wt > t:
		return false
	case t == tx.meta.CommitTick():
		return w.ID < tx.meta.ID
	default:
		return true
	}
}

// newestAt returns the newest version of o with TS <= t, or nil.
//
//tbtm:pinned
//tbtm:noalloc
func newestAt(o *core.Object, t uint64) *core.Version {
	for v := o.Current(); v != nil; v = v.Prev() {
		if v.TS <= t {
			return v
		}
	}
	return nil
}

// fail aborts the transaction and returns err.
func (tx *Tx) fail(err error) error {
	tx.abortInternal(true)
	return err
}

// Read returns the transaction's view of o.
//
//tbtm:pinned
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
		// Re-read: return the version recorded first. Serving the logged
		// entry keeps the read set free of duplicate (and potentially
		// diverging) entries for one object and is exactly the value the
		// snapshot at ub is committed to.
		return tx.reads[i].ver.Value, nil
	}
	tx.meta.Prio.Add(1)

	for {
		w := tx.stabilize(o, anyTick)
		if w != nil && w != tx.meta && w.Status() == core.StatusActive &&
			w.Kind == core.Long && tx.stm.cfg.GuardLongWriters {
			// Under Z-STM, reading around an active long writer would let
			// this transaction both precede and follow it; arbitrate.
			if !cm.Resolve(tx.stm.cfg.CM, tx.meta, w) {
				return nil, tx.fail(core.ErrAborted)
			}
			continue // enemy terminal; re-examine
		}

		if tx.noReadSetFastPath() {
			v := newestAt(o, tx.ub)
			if v == nil {
				tx.th.shard.Inc(cntSnapshotMiss)
				return nil, tx.fail(core.ErrSnapshotUnavailable)
			}
			if tx.zoneUnsafe(o, v) {
				tx.th.shard.Inc(cntConflicts)
				return nil, tx.fail(core.ErrConflict)
			}
			if v != o.Current() {
				tx.th.shard.Inc(cntOldVersions)
			}
			return v.Value, nil
		}

		v := o.Current()
		if v.TS > tx.ub {
			// The current version is newer than our snapshot: try to
			// extend the snapshot's validity to now.
			if tx.tryExtend() {
				continue // re-examine with the larger ub
			}
			if tx.ro {
				// Multi-version fallback: serve an old version valid at ub.
				v = newestAt(o, tx.ub)
				if v == nil {
					tx.th.shard.Inc(cntSnapshotMiss)
					return nil, tx.fail(core.ErrSnapshotUnavailable)
				}
				if tx.zoneUnsafe(o, v) {
					tx.th.shard.Inc(cntConflicts)
					return nil, tx.fail(core.ErrConflict)
				}
				tx.th.shard.Inc(cntOldVersions)
			} else {
				tx.th.shard.Inc(cntConflicts)
				return nil, tx.fail(core.ErrConflict)
			}
		}
		tx.rindex.Put(o.ID(), len(tx.reads))
		tx.reads = append(tx.reads, readEntry{obj: o, ver: v})
		return v.Value, nil
	}
}

// tryExtend attempts to move the snapshot time forward to the time base's
// current value, revalidating every read. It returns false without side
// effects if any read version is no longer current (or extension is
// disabled).
//
// With the commit log armed, the common extension is O(commits since
// ub): the log window (ub, now] is scanned against the read footprint,
// and only a wrapped window or a footprint hit falls back to the full
// read-set walk. The window is complete because on a strictly
// commit-counting time base every tick at or below the observed now was
// acquired — and its record claimed — before Now returned it.
//
//tbtm:pinned
func (tx *Tx) tryExtend() bool {
	if tx.stm.cfg.NoExtension {
		return false
	}
	now := tx.stm.cfg.Clock.Now(tx.th.id)
	if now <= tx.ub {
		return false
	}
	if tx.logClear(tx.ub, now) {
		tx.ub = now
		tx.th.shard.Inc(cntExtensions)
		tx.th.shard.Inc(cntExtensionsFast)
		return true
	}
	if !tx.validateAt(now) {
		return false
	}
	tx.ub = now
	tx.th.shard.Inc(cntExtensions)
	tx.th.shard.Inc(cntExtensionsFull)
	return true
}

// logClear reports whether the commit log proves no transaction that
// committed (or is committing) with a tick in (lb, ub] wrote any object
// in the transaction's read footprint — in which case every read is
// still the newest version at ub and the snapshot extends without
// touching the read set. Any other outcome (hit, wrap, unpublished
// record) means "validate the slow way", never "conflict": records are
// published before their writer's own validation, so a hit may stem
// from a writer that went on to abort.
//
//tbtm:pinned
func (tx *Tx) logClear(lb, ub uint64) bool {
	log := tx.stm.log
	if log == nil {
		return false
	}
	verdict := log.Check(lb, ub, &tx.rindex)
	if verdict == core.LogWrapped {
		tx.th.shard.Inc(cntLogWraps)
	}
	if verdict != core.LogClear {
		return false
	}
	if tx.stm.cfg.CrossCheck && !tx.validateAt(ub) {
		panic("lsa: commit-log fast path admitted an extension full validation rejects")
	}
	return true
}

// zoneUnsafe reports whether serving v — an old version of o, valid at
// the scalar snapshot time — would tear the zone serialization: a
// version newer than v installed by a long transaction whose zone is at
// or below this transaction's label (tagged core.LongZoneTag by Z-STM's
// long commit) must be visible to us, because every long with zone <= z
// serializes before every short labeled z. The scalar snapshot at ub
// can legally predate such an install — longs commit "in the past",
// their versions landing late on the scalar timeline — so old-version
// reads must refuse to skip them even though LSA's own linearizability
// at ub holds. Plain LSA transactions carry zone 0 and skip the walk.
//
//tbtm:pinned
//tbtm:noalloc
func (tx *Tx) zoneUnsafe(o *core.Object, v *core.Version) bool {
	if tx.zone == 0 {
		return false
	}
	for w := o.Current(); w != nil && w != v; w = w.Prev() {
		if w.Zone&core.LongZoneTag != 0 && w.Zone&^core.LongZoneTag <= tx.zone {
			return true
		}
	}
	return false
}

// validateAt reports whether every read version is still the newest
// version at time t. Committing writers whose in-flight installs may
// land at or below t are waited out first so those installs are
// observed; installs above t cannot change the version newest at t.
//
//tbtm:pinned
func (tx *Tx) validateAt(t uint64) bool {
	for _, r := range tx.reads {
		tx.stabilize(r.obj, t)
		if newestAt(r.obj, t) != r.ver {
			return false
		}
	}
	return true
}

// Write buffers an update of o to val, acquiring write ownership eagerly
// so write/write conflicts are detected at open time (paper §2).
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
				tx.recordWrite(o, val)
				return nil
			}
		case w == tx.meta:
			tx.recordWrite(o, val)
			return nil
		case w.Status().Terminal():
			if o.CASWriter(w, tx.meta) {
				tx.recordWrite(o, val)
				return nil
			}
		default:
			if !cm.Resolve(tx.stm.cfg.CM, tx.meta, w) {
				tx.th.shard.Inc(cntConflicts)
				return tx.fail(core.ErrAborted)
			}
		}
		// The same progression as the stabilize/Resolve spin loops: round
		// 0 merely yields, every later round sleeps. The earlier round/4
		// damping made the first four conflict rounds zero-delay spins,
		// hammering the writer word while the enemy tried to finish.
		cm.Backoff(round)
	}
}

func (tx *Tx) recordWrite(o *core.Object, val any) {
	tx.windex.Put(o.ID(), len(tx.writes))
	tx.writes = append(tx.writes, writeEntry{obj: o, val: val})
}

// Commit attempts to commit the transaction. On success the buffered
// writes are installed atomically at a fresh commit time. On failure the
// transaction is aborted and a retryable error returned.
func (tx *Tx) Commit() error {
	if tx.done {
		return core.ErrTxDone
	}
	if tx.meta.Status() == core.StatusAborted {
		return tx.fail(core.ErrAborted)
	}

	// Read-only (or write-free) transactions commit directly after the
	// snapshot phase (paper §2): the snapshot is consistent at ub.
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
	if tx.commitCheck != nil {
		if err := tx.commitCheck(); err != nil {
			tx.meta.CASStatus(core.StatusCommitting, core.StatusAborted)
			tx.releaseLocks()
			tx.finish()
			tx.th.shard.Inc(cntAborts)
			tx.th.shard.Inc(cntConflicts)
			return err
		}
	}
	ct := tx.stm.cfg.Clock.CommitTime(tx.th.id)
	tx.meta.SetCommitTick(ct)
	// Publish the write set into the commit log immediately after
	// acquiring the commit time and before validating: the tick is the
	// claim, so a concurrent extension scanning past ct finds the record
	// (or spins briefly on it) instead of missing our in-flight installs.
	// If validation fails below, the record stays behind as a false
	// positive — extensions that hit it merely fall back to the full
	// walk.
	tx.publishLog(ct)
	// RSTM fast path: on a strictly commit-counting time base,
	// ct == ub+1 means no transaction committed between the (validated)
	// snapshot at ub and our commit — versions with TS <= ub were all
	// installed or lock-protected when read (stabilize), so the read set
	// is trivially still valid at ct. The commit log generalizes it: any
	// commits in (ub, ct-1] that avoided the read footprint leave the
	// read set just as valid at ct (tick ct is ours).
	if (tx.stm.fastOK && ct == tx.ub+1) || tx.logClear(tx.ub, ct-1) {
		tx.th.shard.Inc(cntFastValidations)
	} else if !tx.validateAt(ct) {
		tx.meta.CASStatus(core.StatusCommitting, core.StatusAborted)
		tx.releaseLocks()
		tx.finish()
		tx.th.shard.Inc(cntAborts)
		tx.th.shard.Inc(cntConflicts)
		return core.ErrConflict
	}
	for _, w := range tx.writes {
		w.obj.InstallRecycled(&tx.th.rec, w.val, ct, tx.meta.ID, tx.zone)
	}
	tx.meta.CASStatus(core.StatusCommitting, core.StatusCommitted)
	tx.releaseLocks()
	tx.finish()
	tx.wake()
	tx.th.shard.Inc(cntCommits)
	return nil
}

// publishLog records the transaction's write set in the commit log
// under its freshly acquired commit time, reusing the thread's ID
// buffer so the hot path allocates nothing once warm.
//
//tbtm:noalloc
func (tx *Tx) publishLog(ct uint64) {
	log := tx.stm.log
	if log == nil {
		return
	}
	ids := tx.th.idbuf[:0]
	for i := range tx.writes {
		ids = append(ids, tx.writes[i].obj.ID())
	}
	tx.th.idbuf = ids
	log.Publish(ct, ids)
}

// wake publishes a wakeup for every written object once the commit is
// fully visible (versions installed, status committed, locks released),
// so a parked reader that re-runs immediately neither misses the new
// values nor collides with our writer words.
func (tx *Tx) wake() {
	lot := tx.stm.cfg.Lot
	if lot == nil {
		return
	}
	for _, w := range tx.writes {
		lot.Wake(w.obj.ID())
	}
}

// Abort aborts the transaction explicitly. Aborting a finished
// transaction is a no-op.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.abortInternal(false)
}

func (tx *Tx) abortInternal(countConflict bool) {
	_ = countConflict
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

func (tx *Tx) finish() {
	tx.done = true
	tx.th.rec.Unpin()
}
