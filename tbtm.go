// Package tbtm is a time-based software transactional memory (TBTM)
// library implementing the consistency-criteria spectrum of Riegel,
// Sturzrehm, Felber and Fetzer, "From Causal to z-Linearizable
// Transactional Memory" (PODC 2007):
//
//   - Linearizable — LSA-STM, a multi-version lazy-snapshot STM [8]
//   - SingleVersion — a lean single-version TBTM in the style of TL2 [2]
//   - CausallySerializable — CS-STM on a vector (or plausible) time base
//   - Serializable — S-STM with precedence tracking over vector time
//   - ZLinearizable — Z-STM, the paper's contribution: long transactions
//     partition short transactions into zones; longs are linearizable,
//     shorts within a zone are linearizable, the union is serializable,
//     and the serialization respects per-thread program order
//
// Usage:
//
//	tm, err := tbtm.New(tbtm.WithConsistency(tbtm.ZLinearizable))
//	acct := tbtm.NewVar(tm, int64(100))
//	th := tm.NewThread() // one handle per goroutine
//	err = th.Atomic(tbtm.Short, func(tx tbtm.Tx) error {
//	    v, err := acct.Read(tx)
//	    if err != nil {
//	        return err
//	    }
//	    return acct.Write(tx, v-10)
//	})
//
// Threads: the paper's algorithms carry per-thread state (the vector
// clock component VC_p, the last-zone value LZC_p). Go has no thread
// locals, so each worker goroutine obtains a Thread handle; handles must
// not be shared between goroutines.
package tbtm

import (
	"errors"
	"fmt"

	"tbtm/internal/adaptive"
	"tbtm/internal/core"
	"tbtm/internal/metrics"
	"tbtm/internal/stats"
	"tbtm/internal/telemetry"
)

// Sentinel errors. They alias the kernel's values so errors.Is works on
// errors returned from any layer.
var (
	// ErrConflict reports a transaction aborted by a conflict; retrying
	// may succeed. Atomic retries these automatically.
	ErrConflict = core.ErrConflict
	// ErrAborted reports a transaction aborted explicitly or by a
	// contention manager. Retryable.
	ErrAborted = core.ErrAborted
	// ErrTxDone reports use of a finished transaction.
	ErrTxDone = core.ErrTxDone
	// ErrSnapshotUnavailable reports that no retained object version was
	// old enough for the transaction's snapshot. Retryable.
	ErrSnapshotUnavailable = core.ErrSnapshotUnavailable
	// ErrReadOnly reports a write inside a read-only transaction.
	ErrReadOnly = core.ErrReadOnly
	// ErrRetriesExhausted reports that Atomic gave up after the
	// configured maximum number of attempts.
	ErrRetriesExhausted = errors.New("tbtm: retry limit exhausted")
	// ErrRetryWait is the sentinel returned by Retry: the transaction
	// body cannot proceed until some object in its read footprint is
	// overwritten by a committed transaction. Atomic, AtomicOrElse and
	// AtomicSite intercept it; returning it through any other path makes
	// it an ordinary retryable error.
	ErrRetryWait = errors.New("tbtm: retry waiting for footprint change")
)

// Retry signals from inside an Atomic (or AtomicOrElse, AtomicSite) body
// that the transaction cannot make progress in the current state — a
// consumer found the queue empty, a guard condition is false — and
// should re-run only once the state changes. The body must return the
// result immediately:
//
//	err := th.Atomic(tbtm.Short, func(tx tbtm.Tx) error {
//	    v, err := q.Dequeue(tx)
//	    if errors.Is(err, structs.ErrEmpty) {
//	        return tbtm.Retry(tx)
//	    }
//	    ...
//	})
//
// On a TM built with WithBlockingRetry, the current attempt is aborted
// and the thread parks on the transaction's read footprint until a
// committed transaction overwrites one of the objects it read ("changed"
// means a new committed version of the object, under scalar and vector
// time bases alike); the park consumes no CPU and does not count against
// WithMaxRetries. Without the option — or when the footprint is empty,
// e.g. a declared read-only transaction under WithNoReadSets — Retry
// degrades to polling with the standard backoff.
func Retry(tx Tx) error {
	_ = tx // the footprint is captured from the attempt that returns this
	return ErrRetryWait
}

// IsRetryable reports whether err is a transient transactional failure.
func IsRetryable(err error) bool { return core.IsRetryable(err) }

// TxKind classifies transactions as short or long (paper §5.3). The
// classification must be known at start; under ZLinearizable it selects
// the algorithm (LSA for Short, zone ordering for Long), elsewhere it
// only informs the contention manager.
type TxKind = core.TxKind

// Transaction kinds.
const (
	// Short marks a transaction expected to touch few objects.
	Short = core.Short
	// Long marks a transaction expected to touch many objects (e.g. the
	// paper's Compute-Total bank transaction).
	Long = core.Long
)

// Tx is a transaction in progress. A Tx is owned by one goroutine and
// is invalid after Commit or Abort: the next Begin (or Atomic attempt)
// on the same Thread may recycle the descriptor in place, so a finished
// Tx must not be retained, inspected, or used again. Operations on a
// finished Tx before the next Begin return ErrTxDone.
type Tx interface {
	// Read returns the transaction's view of obj.
	Read(obj Object) (any, error)
	// Write buffers an update of obj to val.
	Write(obj Object, val any) error
	// Commit attempts to commit; on failure the transaction is aborted
	// and a retryable error returned.
	Commit() error
	// Abort aborts the transaction (no-op when already finished).
	Abort()
	// Kind returns the transaction's classification.
	Kind() TxKind
	// meta exposes the kernel descriptor for internal instrumentation.
	meta() *core.TxMeta
	// watches appends the transaction's read footprint (for the blocking
	// layer) and watchesStale re-checks it; see innerTx in backends.go.
	watches(buf []core.Watch) []core.Watch
	watchesStale(ws []core.Watch) bool
}

// Object is an opaque handle to a transactional object, bound to the TM
// that created it.
type Object struct {
	tm *TM
	h  any
}

// backend is the seam between the facade and an STM implementation.
type backend interface {
	newObject(initial any) any
	newThread() backendThread
	stats() Stats
}

type backendThread interface {
	begin(kind TxKind, readOnly bool) Tx
	id() int
}

// TM is a transactional memory instance. All objects and threads are
// bound to the instance that created them.
type TM struct {
	cfg        config
	b          backend
	classifier *adaptive.Classifier // nil unless WithAutoClassify
	lot        *core.ParkingLot     // nil unless WithBlockingRetry

	// reasons aggregates failed-attempt counts by abort reason across
	// the instance's threads (one stats shard per Thread; see
	// AbortReasons). The zero Set is ready to use.
	reasons stats.Set
}

// New creates a TM with the given options. The default configuration is
// ZLinearizable with a shared-counter time base, eight retained versions
// per object, and the zone-aware contention manager.
func New(opts ...Option) (*TM, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tm := &TM{cfg: cfg}
	if cfg.blockingRetry {
		tm.lot = core.NewParkingLot() // before buildBackend: configs capture it
	}
	tm.b = buildBackend(cfg, tm)
	if cfg.autoClassify {
		tm.classifier = adaptive.NewClassifier(adaptive.Config{LongOpens: cfg.classifyOpens})
	}
	return tm, nil
}

// MustNew is New, panicking on configuration errors. Intended for
// examples and tests with static options.
func MustNew(opts ...Option) *TM {
	tm, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return tm
}

// Consistency returns the instance's consistency criterion.
func (tm *TM) Consistency() Consistency { return tm.cfg.consistency }

// NewObject allocates a transactional object holding initial. Values are
// treated as immutable snapshots: writers install new values rather than
// mutating in place, so share only values you will not mutate.
func (tm *TM) NewObject(initial any) Object {
	return Object{tm: tm, h: tm.b.newObject(initial)}
}

// NewThread returns a handle for one worker goroutine. Threads are
// designed to be long-lived: each handle registers a stats shard that
// stays reachable from the TM for the TM's lifetime (counters are
// cumulative), so create one handle per worker and reuse it rather
// than allocating a handle per request.
func (tm *TM) NewThread() *Thread {
	return &Thread{tm: tm, b: tm.b.newThread(), reasons: tm.reasons.NewShard()}
}

// AbortReasons is the per-reason breakdown of failed transaction
// attempts made through the Atomic* helpers (manual Begin/Commit
// pairs are not classified). Retry-wait parks are not aborts and are
// counted separately in Stats.Parks.
type AbortReasons struct {
	// Conflict counts validation failures and lost arbitrations.
	Conflict uint64 `json:"conflict"`
	// Aborted counts contention-manager and explicit aborts.
	Aborted uint64 `json:"aborted"`
	// SnapshotMiss counts attempts that found no retained version old
	// enough for their snapshot.
	SnapshotMiss uint64 `json:"snapshot_miss"`
	// Other counts failures outside the sentinel taxonomy (including
	// non-retryable application errors returned through commit).
	Other uint64 `json:"other"`
}

// AbortReasons returns the instance's cumulative failed-attempt
// counts classified by the internal/metrics taxonomy.
func (tm *TM) AbortReasons() AbortReasons {
	snap := tm.reasons.Snapshot()
	return AbortReasons{
		Conflict:     snap[int(metrics.ReasonConflict)],
		Aborted:      snap[int(metrics.ReasonAborted)],
		SnapshotMiss: snap[int(metrics.ReasonSnapshotMiss)],
		Other:        snap[int(metrics.ReasonOther)],
	}
}

// Stats returns a snapshot of the instance's cumulative counters.
func (tm *TM) Stats() Stats {
	s := tm.b.stats()
	if tm.lot != nil {
		s.Parks, s.Wakeups, s.SpuriousWakeups = tm.lot.Counters()
	}
	return s
}

// Stats aggregates commit/abort counters across backends. Fields that a
// backend does not track are zero.
type Stats struct {
	// Commits and Aborts count short (or only-kind) transactions.
	Commits, Aborts uint64
	// Conflicts counts validation failures and lost arbitrations.
	Conflicts uint64
	// Extensions counts successful snapshot extensions (LSA-family
	// backends) or snapshot advances (SnapshotIsolation with the commit
	// log).
	Extensions uint64
	// ExtensionsFast counts extensions/advances validated by the commit
	// log window alone — no read-set walk (see WithCommitLog).
	ExtensionsFast uint64
	// ExtensionsFull counts extensions/advances that fell back to the
	// full read-set walk (log off, window wrapped, or footprint hit).
	ExtensionsFull uint64
	// LogWraps counts commit-log fast-path fallbacks caused by the log
	// window wrapping (the transaction fell further behind than the ring
	// holds; raise WithCommitLog's size if this dominates).
	LogWraps uint64
	// LongCommits and LongAborts count Z-STM long transactions.
	LongCommits, LongAborts uint64
	// ZoneCrosses counts short aborts due to zone crossings (Z-STM).
	ZoneCrosses uint64
	// ZoneWaits counts zone crossings resolved by waiting for the long
	// transaction to finish (Z-STM).
	ZoneWaits uint64
	// FastValidations counts commits that skipped read-set validation —
	// via the RSTM fast path (LSA-family backends with
	// WithValidationFastPath) or via a clear commit-log window (any
	// backend with the commit log on).
	FastValidations uint64
	// OldVersions counts reads served by a non-current retained version
	// (multi-version backends: LSA, SI-STM, Z-STM shorts).
	OldVersions uint64
	// SnapshotMisses counts aborts because no retained version was old
	// enough for the transaction's snapshot (multi-version backends).
	SnapshotMisses uint64
	// Parks counts threads that blocked in Retry waiting for their read
	// footprint to change (WithBlockingRetry only; a near-miss — the
	// footprint changed between the failed attempt and the park — re-runs
	// without parking and is not counted).
	Parks uint64
	// Wakeups counts parked threads unblocked by a committed update to a
	// watched object.
	Wakeups uint64
	// SpuriousWakeups counts wakeups whose re-run called Retry again —
	// the watched state changed but not into one the transaction could
	// proceed from (e.g. a competing consumer emptied the queue first).
	SpuriousWakeups uint64
}

// Sub returns the element-wise difference s - prev. Counters are
// cumulative for the TM's lifetime, so long-running processes that
// report periodic rates (a server logging per-interval commit counts, a
// load generator isolating its own window) subtract the snapshot taken
// at the start of the interval.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Commits:         s.Commits - prev.Commits,
		Aborts:          s.Aborts - prev.Aborts,
		Conflicts:       s.Conflicts - prev.Conflicts,
		Extensions:      s.Extensions - prev.Extensions,
		ExtensionsFast:  s.ExtensionsFast - prev.ExtensionsFast,
		ExtensionsFull:  s.ExtensionsFull - prev.ExtensionsFull,
		LogWraps:        s.LogWraps - prev.LogWraps,
		LongCommits:     s.LongCommits - prev.LongCommits,
		LongAborts:      s.LongAborts - prev.LongAborts,
		ZoneCrosses:     s.ZoneCrosses - prev.ZoneCrosses,
		ZoneWaits:       s.ZoneWaits - prev.ZoneWaits,
		FastValidations: s.FastValidations - prev.FastValidations,
		OldVersions:     s.OldVersions - prev.OldVersions,
		SnapshotMisses:  s.SnapshotMisses - prev.SnapshotMisses,
		Parks:           s.Parks - prev.Parks,
		Wakeups:         s.Wakeups - prev.Wakeups,
		SpuriousWakeups: s.SpuriousWakeups - prev.SpuriousWakeups,
	}
}

// Thread is a per-goroutine handle. It carries the per-thread state of
// the underlying algorithm and a reference to the TM.
type Thread struct {
	tm *TM
	b  backendThread

	// waiter is the thread's reusable parking handle; watchBuf is the
	// reusable footprint buffer. Both are blocking-layer slow-path state,
	// allocated on the thread's first park.
	waiter   *core.Waiter
	watchBuf []core.Watch

	// lastCommitTick is the scalar commit time of the thread's most
	// recent committed update transaction (see LastCommitTick).
	lastCommitTick uint64

	// begins counts transactions begun on this thread. Single-goroutine
	// by the Thread contract, so a plain field; the server's transport
	// diffs it around an op to recover the attempt count for the flight
	// recorder (attempts-1 = conflict retries).
	begins uint64

	// reasons is this thread's shard of the TM's abort-reason counters.
	reasons *stats.Shard

	// trRing (with trConn/trSeq correlation ids) attaches the thread to
	// a flight-recorder ring so deeper layers (the durable store's WAL
	// gate and fsync waits) can record phase events against the wire op
	// currently executing on this thread. Nil for unattached threads.
	trRing *telemetry.Ring
	trConn uint32
	trSeq  uint64
}

// Begins returns the cumulative number of transactions begun on this
// thread. Only the owning goroutine may call it.
func (th *Thread) Begins() uint64 { return th.begins }

// AttachTrace points the thread at a flight-recorder ring with the
// given correlation ids (conn, seq). The server's transport attaches
// before dispatching each wire op; a nil ring detaches.
//
//tbtm:noalloc
func (th *Thread) AttachTrace(r *telemetry.Ring, conn uint32, seq uint64) {
	th.trRing, th.trConn, th.trSeq = r, conn, seq
}

// Trace returns the attached ring and correlation ids (ring is nil
// when unattached; telemetry record calls are nil-safe).
//
//tbtm:noalloc
func (th *Thread) Trace() (*telemetry.Ring, uint32, uint64) {
	return th.trRing, th.trConn, th.trSeq
}

// begin starts a backend transaction, counting it.
func (th *Thread) begin(kind TxKind, ro bool) Tx {
	th.begins++
	return th.b.begin(kind, ro)
}

// noteAbort classifies one failed attempt into the TM's abort-reason
// counters (cold path: attempts that fail are about to back off or
// return).
func (th *Thread) noteAbort(err error) {
	if th.reasons != nil {
		th.reasons.Inc(int(metrics.Classify(err)))
	}
}

// LastCommitTick returns the engine commit time under which this
// thread's most recent *update* transaction committed through the
// Atomic* helpers installed its writes (manual Begin/Commit pairs are
// not tracked). Read-only and write-free commits leave it unchanged. Ticks
// are totally ordered and dense on scalar-clock backends (Linearizable,
// SingleVersion, ZLinearizable, SnapshotIsolation); conflicting
// transactions commit in tick order, so per-object state can be
// reconstructed by replaying writes in tick order — the property a
// write-ahead log consumer needs. Vector-clock backends
// (CausallySerializable, Serializable) have no scalar commit time and
// always report zero.
func (th *Thread) LastCommitTick() uint64 { return th.lastCommitTick }

// noteCommit records a successful commit's tick; write-free commits
// (tick zero) are ignored so the last update commit stays observable.
func (th *Thread) noteCommit(tx Tx) {
	if ct := tx.meta().CommitTick(); ct != 0 {
		th.lastCommitTick = ct
	}
}

// TM returns the owning instance.
func (th *Thread) TM() *TM { return th.tm }

// ID returns the thread's index within the TM's time base.
func (th *Thread) ID() int { return th.b.id() }

// Begin starts a transaction of the given kind.
//
// Begin may recycle the thread's previous transaction descriptor: a Tx
// is invalid after Commit or Abort, and a handle to a finished
// transaction must not be retained across the next Begin on the same
// thread. This keeps the warm begin→commit path free of descriptor
// allocations.
func (th *Thread) Begin(kind TxKind) Tx { return th.begin(kind, false) }

// BeginReadOnly starts a transaction that declares it will not write.
// Read-only transactions enable old-version fallbacks and, with
// WithNoReadSets, skip read-set maintenance entirely.
func (th *Thread) BeginReadOnly(kind TxKind) Tx { return th.begin(kind, true) }

// Atomic runs fn inside a transaction of the given kind, retrying on
// transient conflicts with exponential backoff. fn may be re-executed
// any number of times and must not have side effects beyond the
// transaction. A non-retryable error from fn (or from commit) aborts the
// transaction and is returned unchanged. fn may return Retry(tx) to
// block until the transaction's read footprint changes (see Retry).
func (th *Thread) Atomic(kind TxKind, fn func(Tx) error) error {
	return th.atomic(kind, false, fn, nil)
}

// AtomicReadOnly is Atomic for transactions that declare they will not
// write.
func (th *Thread) AtomicReadOnly(kind TxKind, fn func(Tx) error) error {
	return th.atomic(kind, true, fn, nil)
}

// AtomicOrElse composes two alternatives (the orElse combinator of
// Harris et al.'s composable memory transactions): it runs fn, and if fn
// asks to Retry, runs alt in a fresh transaction of the same kind. If
// alt also retries, the thread blocks on the union of both attempts'
// read footprints — a committed update to anything either alternative
// read re-runs the pair from fn. Either body committing completes the
// call; non-retryable errors return unchanged.
func (th *Thread) AtomicOrElse(kind TxKind, fn, alt func(Tx) error) error {
	return th.atomic(kind, false, fn, alt)
}

// AtomicSite runs fn like Atomic but classifies the transaction as short
// or long automatically from the named site's past behaviour (its
// average footprint and abort history), implementing §5.3's "automatic
// marking based on past behaviors". New sites start as Short. The TM
// must be built with WithAutoClassify; otherwise AtomicSite behaves like
// Atomic(Short, fn).
func (th *Thread) AtomicSite(site string, fn func(Tx) error) error {
	cls := th.tm.classifier
	if cls == nil {
		return th.Atomic(Short, fn)
	}
	kind := cls.Classify(site)
	max := th.tm.cfg.maxRetries
	blocked := false // see atomic
	for attempt := 0; ; attempt++ {
		tx := th.begin(kind, false)
		err := fn(tx)
		// Capture the open count (Prio counts opened objects across all
		// implementations) BEFORE Commit/Abort release the descriptor:
		// finishing ends the epoch critical section, after which the
		// recycler may Reset the meta for another transaction, so a later
		// Prio.Load could observe a stale or zero footprint and feed the
		// classifier garbage.
		opens := int(tx.meta().Prio.Load())
		wantsRetry := errors.Is(err, ErrRetryWait)
		if err == nil {
			err = tx.Commit()
		} else if !wantsRetry {
			tx.Abort() // Retry aborts below, after the footprint is captured
		}
		if !wantsRetry {
			// A blocked attempt is neither a commit nor a contention
			// abort — feeding it to the classifier would grow the site's
			// abort streak (and promote it to Long) merely for being
			// idle, so Retry attempts are not observed.
			kind = cls.Observe(site, opens, err == nil)
		}
		if err == nil {
			th.noteCommit(tx)
			return nil
		}
		if wantsRetry {
			rerun, didBlock := th.parkForRetry(tx, blocked)
			if rerun {
				blocked = didBlock
				attempt = -1 // parked waits are not contention retries
				continue
			}
			blocked = false
		} else {
			blocked = false
			th.noteAbort(err)
			if !core.IsRetryable(err) {
				return err
			}
		}
		if max > 0 && attempt+1 >= max {
			return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, attempt+1, err)
		}
		backoff(attempt)
	}
}

// atomic is the shared retry loop behind Atomic, AtomicReadOnly and
// AtomicOrElse (alt == nil disables the orElse arm).
func (th *Thread) atomic(kind TxKind, ro bool, fn, alt func(Tx) error) error {
	max := th.tm.cfg.maxRetries
	// blocked remembers that the previous re-run followed an actual park,
	// so a re-run that immediately retries again counts as a spurious
	// wakeup.
	blocked := false
	for attempt := 0; ; attempt++ {
		tx := th.begin(kind, ro)
		err := fn(tx)
		if err == nil {
			err = tx.Commit() // aborts internally on failure
		}
		if err == nil {
			th.noteCommit(tx)
			return nil
		}
		if errors.Is(err, ErrRetryWait) {
			// Capture the footprint while the descriptor is still live,
			// then abort the attempt; the Watch entries carry only object
			// handles and Seq values, never version or descriptor
			// pointers, so they stay valid across the park.
			ws := tx.watches(th.watchBuf[:0])
			tx.Abort()
			if alt != nil {
				tx2 := th.begin(kind, ro)
				err2 := alt(tx2)
				if err2 == nil {
					err2 = tx2.Commit()
				}
				if err2 == nil {
					th.noteCommit(tx2)
					th.watchBuf = resetWatches(ws)
					return nil
				}
				if errors.Is(err2, ErrRetryWait) {
					// Park on the union of both footprints.
					ws = tx2.watches(ws)
					tx2.Abort()
					tx = tx2
				} else {
					tx2.Abort()
					th.noteAbort(err2)
					th.watchBuf = resetWatches(ws)
					if !core.IsRetryable(err2) {
						return err2
					}
					blocked = false
					if max > 0 && attempt+1 >= max {
						return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, attempt+1, err2)
					}
					backoff(attempt)
					continue
				}
			}
			// Only now — with fn (and the alternative, if any) both asking
			// to retry again — is the previous wakeup known to have been
			// unproductive.
			if blocked && th.tm.lot != nil {
				th.tm.lot.NoteSpurious()
			}
			rerun, didBlock := th.parkOn(tx, ws)
			th.watchBuf = resetWatches(ws)
			if rerun {
				blocked = didBlock
				attempt = -1 // parked waits are not contention retries
				continue
			}
			blocked = false
			// No parking available (no lot, or empty footprint): degrade
			// to the standard bounded polling below.
		} else {
			blocked = false
			tx.Abort() // no-op when the error came from Commit
			th.noteAbort(err)
			if !core.IsRetryable(err) {
				return err
			}
		}
		if max > 0 && attempt+1 >= max {
			return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, attempt+1, err)
		}
		backoff(attempt)
	}
}

// parkForRetry captures tx's read footprint, aborts the attempt, and
// parks until the footprint changes (AtomicSite's single-body variant of
// the flow inlined in atomic). wokePrev reports that the attempt was the
// re-run of an actual park — retrying again makes that wakeup spurious.
func (th *Thread) parkForRetry(tx Tx, wokePrev bool) (rerun, didBlock bool) {
	ws := tx.watches(th.watchBuf[:0])
	tx.Abort()
	if wokePrev && th.tm.lot != nil {
		th.tm.lot.NoteSpurious()
	}
	rerun, didBlock = th.parkOn(tx, ws)
	th.watchBuf = resetWatches(ws)
	return rerun, didBlock
}

// parkOn blocks the thread until some watched object is overwritten by a
// committed transaction. tx is the (finished) attempt whose backend
// re-checks watch currency. It returns rerun=false when blocking is
// unavailable — no parking lot, or an empty footprint — and the caller
// must poll instead; didBlock distinguishes a real park from a near-miss
// (the footprint changed before the thread got to sleep).
//
// The enqueue → re-check → block order is what makes wakeups lossless: a
// writer that committed before our registration is caught by the
// re-check (watchesStale observes its install), and one that commits
// after it finds us registered and notifies.
func (th *Thread) parkOn(tx Tx, ws []core.Watch) (rerun, didBlock bool) {
	lot := th.tm.lot
	if lot == nil || len(ws) == 0 {
		return false, false
	}
	if th.waiter == nil {
		th.waiter = core.NewWaiter()
	}
	lot.Enqueue(th.waiter, ws)
	if tx.watchesStale(ws) {
		lot.Dequeue(th.waiter, ws)
		return true, false // near-miss: re-run immediately
	}
	lot.Block(th.waiter)
	lot.Dequeue(th.waiter, ws)
	return true, true
}

// resetWatches clears the buffer's object references and returns it
// empty for reuse.
func resetWatches(ws []core.Watch) []core.Watch {
	clear(ws)
	return ws[:0]
}
