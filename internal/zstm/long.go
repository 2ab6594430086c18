package zstm

import (
	"tbtm/internal/cm"
	"tbtm/internal/core"
)

// LongTx is a long transaction (Algorithm 2). Long transactions maintain
// no validated read set and no commit-time validation (§6): consistency
// follows from the strictly monotonic per-object zone stamps raised at
// open, the arbitration with any active writer at open, and the
// commit-order check against CT.
//
// The paper assumes each object is opened exactly once (§5.1); Algorithm
// 2 would abort on re-open (o.zc is no longer < T.zc). We tolerate
// re-opens instead: the first-open values are recorded in an append-only
// log, and a re-open — detected for free because o.zc == T.zc happens
// only for objects this transaction opened (zone numbers are unique) —
// is served from the log with a linear scan. The common path therefore
// stays a plain append, preserving the paper's "no read set" performance
// claim, while re-reads remain snapshot-consistent.
type LongTx struct {
	th   *Thread
	meta *core.TxMeta
	ro   bool
	zc   uint64

	reads  []longRead
	writes []longWrite
	windex core.SmallIndex
	done   bool
}

type longRead struct {
	obj *core.Object
	val any
	// seq is the Seq of the version the read returned, recorded while
	// the version was protected by the transaction's epoch pin so the
	// blocking layer can watch the object without retaining the (possibly
	// recycled) version node.
	seq uint64
}

type longWrite struct {
	obj *core.Object
	val any
}

// ZC returns the transaction's reserved zone number T.zc.
func (tx *LongTx) ZC() uint64 { return tx.zc }

// Meta exposes the shared descriptor.
func (tx *LongTx) Meta() *core.TxMeta { return tx.meta }

// Done reports whether the transaction has finished and its descriptor
// may be recycled. A nil receiver counts as done.
func (tx *LongTx) Done() bool { return tx == nil || tx.done }

// ReadOnly reports whether the transaction was declared read-only.
func (tx *LongTx) ReadOnly() bool { return tx.ro }

// finish marks the transaction done and leaves the epoch critical
// section entered by BeginLong.
func (tx *LongTx) finish() {
	tx.done = true
	tx.th.inner.Recycler().Unpin()
}

// fail aborts the transaction and returns err.
func (tx *LongTx) fail(err error) error {
	tx.meta.TryAbort()
	tx.releaseLocks()
	tx.th.stm.unregisterZone(tx.zc)
	tx.finish()
	tx.th.shard.Inc(cntLongAborts)
	return err
}

// open implements Algorithm 2 lines 5-22: raise the object's zone stamp
// (abort if a higher zone already passed us), arbitrate with any active
// writer, and for writes acquire ownership. reopened reports that this
// transaction had already opened o (o.zc equals our unique zone number).
//
// Ordering is load-bearing for write opens: ownership is acquired
// BEFORE the zone stamp is raised. The stamp tells same-zone shorts "o
// belongs to my zone, read freely", while the guard that keeps a short
// from reading around an active long writer (lsa GuardLongWriters) is
// the writer word — stamping first opened a window (stamp published,
// lock not yet held) in which a same-zone short slipped past both
// checks, read the value this transaction was about to overwrite, and
// committed a validation the long never re-checks: a serializability
// cycle (regression: the hot conformance workloads and
// TestCrossingWaitsForLongInstalls). Read opens keep stamp-first — a
// read-opened object is never overwritten by this transaction, so a
// short reading it behind the stamp is safe. A write open of an object
// this transaction previously read-opened (the stamp is already out)
// retains a residual window; see Write.
func (tx *LongTx) open(o *core.Object, write bool) (reopened bool, err error) {
	if tx.done {
		return false, core.ErrTxDone
	}
	if tx.meta.Status() == core.StatusAborted {
		return false, tx.fail(core.ErrAborted)
	}
	tx.meta.Prio.Add(1)
	if o.ZC() == tx.zc {
		reopened = true
	} else if !write && !o.RaiseZC(tx.zc) {
		// A long transaction with a higher zone number beat us to this
		// object (Algorithm 2 lines 19-20).
		tx.th.shard.Inc(cntLongPassed)
		return false, tx.fail(core.ErrConflict)
	} else if write && o.ZC() > tx.zc {
		// Same rule for write opens, checked non-mutatingly before the
		// lock loop: the stamp is a CAS-max, so a higher stamp means we
		// can never own this object — abort now instead of arbitrating
		// with (and possibly killing) the object's innocent writer only
		// for stampOwned to discover the pass after winning the lock.
		tx.th.shard.Inc(cntLongPassed)
		return false, tx.fail(core.ErrConflict)
	}
	for round := 0; ; round++ {
		if tx.meta.Status() == core.StatusAborted {
			return reopened, tx.fail(core.ErrAborted)
		}
		w := o.Writer()
		switch {
		case w == nil:
			if !write {
				return reopened, nil
			}
			if o.CASWriter(nil, tx.meta) {
				return reopened, tx.stampOwned(o)
			}
		case w == tx.meta:
			return reopened, nil
		case w.Status().Terminal():
			if !write {
				// Terminal leftover lock: a committed writer has already
				// installed its versions; an aborted one never will.
				return reopened, nil
			}
			if o.CASWriter(w, tx.meta) {
				return reopened, tx.stampOwned(o)
			}
		default:
			// Active or committing writer: arbitrate (Algorithm 2 lines
			// 8-11). Resolve returns once the enemy is terminal, or
			// aborts us.
			if !cm.Resolve(tx.th.stm.cfg.CM, tx.meta, w) {
				return reopened, tx.fail(core.ErrAborted)
			}
		}
		cm.Backoff(round)
	}
}

// stampOwned raises o's zone stamp with write ownership already held
// (the write-open order above). On failure — a higher zone passed us
// between the lock and the stamp — the ownership just acquired is
// released before aborting, so the passing transaction is not blocked
// by a dead lock holder longer than a stabilize round.
func (tx *LongTx) stampOwned(o *core.Object) error {
	if o.ZC() == tx.zc || o.RaiseZC(tx.zc) {
		return nil
	}
	o.ReleaseWriter(tx.meta)
	tx.th.shard.Inc(cntLongPassed)
	return tx.fail(core.ErrConflict)
}

// Read opens o in read mode and returns its current committed value. The
// returned version cannot change under us: updates create new versions,
// and concurrent writers were arbitrated with at open (§5.1). A re-read
// is served from the first-open log so the transaction's snapshot stays
// consistent even if a same-zone short transaction updated the object in
// the meantime.
func (tx *LongTx) Read(o *core.Object) (any, error) {
	if tx.done {
		return nil, core.ErrTxDone
	}
	if i, ok := tx.windex.Get(o.ID()); ok {
		return tx.writes[i].val, nil
	}
	reopened, err := tx.open(o, false)
	if err != nil {
		return nil, err
	}
	if reopened {
		for _, r := range tx.reads {
			if r.obj == o {
				return r.val, nil
			}
		}
		// Opened before but never read (write-opened objects are caught
		// by windex above; this covers a read after an arbitration-only
		// open): fall through to the current version.
	}
	// Skip versions installed by short transactions of our own zone: a
	// same-zone short may legally commit between our zone stamp and this
	// read (it saw o.zc == T.zc and passed its zone check), but it
	// serializes after us, so observing its write here would tear our
	// snapshot against objects read earlier. The pre-stamp version is the
	// newest version not tagged with our zone.
	v := o.Current()
	for v != nil && v.Zone == tx.zc {
		v = v.Prev()
	}
	if v == nil {
		// The retained chain holds only same-zone versions: the pre-stamp
		// version was truncated. Abort and retry with a fresh zone.
		return nil, tx.fail(core.ErrSnapshotUnavailable)
	}
	tx.reads = append(tx.reads, longRead{obj: o, val: v.Value, seq: v.Seq})
	return v.Value, nil
}

// Watches appends the transaction's read footprint to buf as (object,
// read-version Seq) pairs and returns the extended slice. It must be
// called before the descriptor is recycled by the thread's next Begin.
func (tx *LongTx) Watches(buf []core.Watch) []core.Watch {
	for i := range tx.reads {
		r := &tx.reads[i]
		buf = append(buf, core.Watch{ID: r.obj.ID(), Seq: r.seq, Obj: r.obj})
	}
	return buf
}

// WatchesStale reports whether any watched object has advanced past the
// Seq recorded at read time, re-entering the thread's epoch critical
// section for the duration of the check (see lsa.Tx.WatchesStale).
func (tx *LongTx) WatchesStale(ws []core.Watch) bool {
	rec := tx.th.inner.Recycler()
	rec.Pin()
	defer rec.Unpin()
	return core.StaleScalar(ws)
}

// Write opens o in write mode and buffers the update (the "private copy"
// of Algorithm 2 line 14; values are immutable so buffering the new value
// is equivalent to duplicating the object).
//
// Caveat (inherited from the paper's §5.1 exactly-once-open model): a
// write of an object this transaction previously READ-opened upgrades
// an already-published zone stamp, so a same-zone short may have read
// the object between the read-open and this write's lock acquisition —
// a window the stamp-after-lock ordering of first-time write opens
// cannot close. Long transactions should write-open read-modify-write
// objects directly (Write then Read is served from the private copy);
// the conformance workloads and the paper's algorithms open each
// object exactly once.
func (tx *LongTx) Write(o *core.Object, val any) error {
	if tx.done {
		return core.ErrTxDone
	}
	if tx.ro {
		return core.ErrReadOnly
	}
	if i, ok := tx.windex.Get(o.ID()); ok {
		tx.writes[i].val = val
		return nil
	}
	if _, err := tx.open(o, true); err != nil {
		return err
	}
	tx.windex.Put(o.ID(), len(tx.writes))
	tx.writes = append(tx.writes, longWrite{obj: o, val: val})
	return nil
}

// Commit implements Algorithm 2 lines 23-31: the transaction commits iff
// its zone number is greater than the commit counter, which it then
// raises to its own zone. No validation is needed — any conflict with
// another long transaction was detected through the zone stamps, and
// short transactions cannot have crossed us (§5.4). After the commit
// counter is raised the commit is irrevocable; buffered writes are then
// installed at a fresh scalar commit time so that short transactions
// validate against them as usual.
func (tx *LongTx) Commit() error {
	if tx.done {
		return core.ErrTxDone
	}
	s := tx.th.stm
	if !tx.meta.CASStatus(core.StatusActive, core.StatusCommitting) {
		return tx.fail(core.ErrAborted)
	}
	for {
		cur := s.ct.Load()
		if tx.zc <= cur {
			// A long transaction with a higher zone number committed
			// first: we were passed (Algorithm 2 lines 28-29).
			tx.meta.CASStatus(core.StatusCommitting, core.StatusAborted)
			tx.releaseLocks()
			s.unregisterZone(tx.zc)
			tx.finish()
			tx.th.shard.Inc(cntLongAborts)
			tx.th.shard.Inc(cntLongPassed)
			return core.ErrConflict
		}
		if s.ct.CompareAndSwap(cur, tx.zc) {
			break
		}
	}
	if len(tx.writes) > 0 {
		ct := s.inner.Clock().CommitTime(tx.th.inner.ID())
		tx.meta.SetCommitTick(ct)
		// Long transactions tick the same time base as the short-side LSA,
		// so their write sets must reach the same commit log: a short
		// transaction fast-extending across ct would otherwise never see
		// these installs. Published before installing, like lsa.Tx.Commit.
		if log := s.inner.Log(); log != nil {
			ids := tx.th.idbuf[:0]
			for i := range tx.writes {
				ids = append(ids, tx.writes[i].obj.ID())
			}
			tx.th.idbuf = ids
			log.Publish(ct, ids)
		}
		rec := tx.th.inner.Recycler()
		for _, w := range tx.writes {
			// The LongZoneTag marks these versions as long-installed: a
			// short labeled with this zone (or a later one) must never
			// read around them via the old-version fallback, while the
			// same-zone-skip in LongTx.Read (which matches the plain zone
			// number) keeps ignoring only short installs.
			w.obj.InstallRecycled(rec, w.val, ct, tx.meta.ID, tx.zc|core.LongZoneTag)
		}
	}
	tx.meta.CASStatus(core.StatusCommitting, core.StatusCommitted)
	tx.releaseLocks()
	s.unregisterZone(tx.zc)
	tx.finish()
	if lot := s.cfg.Lot; lot != nil {
		for _, w := range tx.writes {
			lot.Wake(w.obj.ID())
		}
	}
	tx.th.commitZone(tx.zc) // LZC_p ← T.zc (Algorithm 2 line 27)
	tx.th.shard.Inc(cntLongCommits)
	return nil
}

// Abort aborts the transaction explicitly; it is a no-op on a finished
// transaction.
func (tx *LongTx) Abort() {
	if tx.done {
		return
	}
	tx.meta.TryAbort()
	tx.releaseLocks()
	tx.th.stm.unregisterZone(tx.zc)
	tx.finish()
	tx.th.shard.Inc(cntLongAborts)
}

func (tx *LongTx) releaseLocks() {
	for _, w := range tx.writes {
		w.obj.ReleaseWriter(tx.meta)
	}
}
