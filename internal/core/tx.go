package core

import (
	"sync/atomic"
)

// TxKind classifies a transaction as short or long. The classification
// must be known when the transaction starts (paper §5.3); the adaptive
// package can supply it automatically from past behaviour.
type TxKind uint8

const (
	// Short marks a transaction expected to access few objects. Short
	// transactions run on the underlying time-based algorithm (e.g. LSA).
	Short TxKind = iota + 1
	// Long marks a transaction expected to access many objects. Under
	// Z-STM, long transactions are ordered by the zone counter.
	Long
)

// String returns "short" or "long".
func (k TxKind) String() string {
	switch k {
	case Short:
		return "short"
	case Long:
		return "long"
	default:
		return "unknown"
	}
}

// Status is the lifecycle state of a transaction descriptor. Transitions
// are monotonic: Active → Committing → Committed, or {Active,Committing} →
// Aborted. All transitions go through compare-and-swap so that any thread
// (including a contention manager aborting an enemy, or a helper finishing
// a committing transaction) can race safely.
type Status int32

const (
	// StatusActive is the initial state of a running transaction.
	StatusActive Status = iota + 1
	// StatusCommitting is the transient state published while a
	// transaction validates and installs its updates (S-STM helping,
	// paper §4.2 implementation notes).
	StatusCommitting
	// StatusCommitted is terminal: the transaction's versions are visible.
	StatusCommitted
	// StatusAborted is terminal: the transaction's tentative versions are
	// discarded.
	StatusAborted
)

// String returns the lower-case state name.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitting:
		return "committing"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return "invalid"
	}
}

// Terminal reports whether s is Committed or Aborted.
func (s Status) Terminal() bool {
	return s == StatusCommitted || s == StatusAborted
}

// txIDs issues process-unique transaction identifiers.
var txIDs atomic.Uint64

// NextTxID returns a fresh process-unique transaction ID. IDs are used by
// contention managers (Timestamp/Greedy policies) and by the history
// recorder; they carry no ordering semantics beyond uniqueness and start
// order.
func NextTxID() uint64 { return txIDs.Add(1) }

// TxMeta is the shared descriptor embedded in every STM's transaction
// type. It is the unit the contention managers and object writer locks
// operate on, so that the same arbitration code works across all five
// STM implementations.
type TxMeta struct {
	// ID is the process-unique start-ordered identifier.
	ID uint64
	// Kind is the short/long classification fixed at start.
	Kind TxKind
	// ThreadID identifies the Thread handle that started the transaction.
	ThreadID int
	// Prio is a contention-manager priority (e.g. Karma accumulates work).
	Prio atomic.Int64
	// Retries counts how many times this logical transaction has been
	// re-executed after an abort; used by backoff policies.
	Retries int
	// commitTick is the scalar commit time the transaction installs its
	// writes under, recorded by the backend's commit path as soon as the
	// time is acquired (see CommitTick). Write-free commits leave it
	// zero. Vector-clock backends (CS-STM, S-STM) have no scalar commit
	// time and never set it.
	commitTick atomic.Uint64
	// installing is raised by a vector-clock commit path just before it
	// stamps its timestamp and installs its versions; from then on the
	// committer waits on no one (see Installing).
	installing atomic.Bool

	status atomic.Int32
}

// NewTxMeta returns a descriptor in StatusActive with a fresh ID.
func NewTxMeta(kind TxKind, threadID int) *TxMeta {
	m := &TxMeta{ID: NextTxID(), Kind: kind, ThreadID: threadID}
	m.status.Store(int32(StatusActive))
	return m
}

// Reset re-initializes a recycled descriptor in place with a fresh ID and
// StatusActive. Only a Recycler may call it, and only on a descriptor
// whose reclamation grace period has passed: a descriptor is published to
// other threads through object writer words and contention managers, so
// resetting one that a stale reader could still hold would hand that
// reader a live transaction it has no claim on.
func (m *TxMeta) Reset(kind TxKind, threadID int) {
	m.ID = NextTxID()
	m.Kind = kind
	m.ThreadID = threadID
	m.Prio.Store(0)
	m.Retries = 0
	m.commitTick.Store(0)
	m.installing.Store(false)
	m.status.Store(int32(StatusActive))
}

// CommitTick returns the scalar commit time the transaction acquired for
// its installs, or zero if it has none yet. The owner reads it after
// Commit returns; other threads read it while the transaction is
// committing, to tell whether its in-flight installs can land at or
// below a given time (zero then means "not yet known").
//
//tbtm:noalloc
func (m *TxMeta) CommitTick() uint64 { return m.commitTick.Load() }

// SetCommitTick records the commit time acquired by the owner's commit
// path, before it installs any version under it.
func (m *TxMeta) SetCommitTick(t uint64) { m.commitTick.Store(t) }

// Installing reports whether a committing vector-clock transaction has
// begun stamping and installing. One that has not yet begun will stamp
// a fresh clock tick that no timestamp a concurrent validator already
// holds contains, so its future versions can never causally precede
// that validator; only an installing committer has to be waited out.
func (m *TxMeta) Installing() bool { return m.installing.Load() }

// SetInstalling marks the transaction as installing. The commit path
// calls it before acquiring its fresh tick, so a validator that still
// reads false is guaranteed the tick comes later.
func (m *TxMeta) SetInstalling() { m.installing.Store(true) }

// Status returns the current lifecycle state.
func (m *TxMeta) Status() Status { return Status(m.status.Load()) }

// CASStatus attempts the from→to transition and reports success.
func (m *TxMeta) CASStatus(from, to Status) bool {
	return m.status.CompareAndSwap(int32(from), int32(to))
}

// TryAbort moves the descriptor to StatusAborted unless it is already
// terminal. It returns true if the transaction is aborted after the call
// (whether by us or previously), false if it had already committed.
// Aborting a StatusCommitting transaction is allowed only from the
// transaction's own commit path; contention managers must not abort a
// committing enemy, so they use TryAbortActive instead.
func (m *TxMeta) TryAbort() bool {
	for {
		s := m.Status()
		switch s {
		case StatusCommitted:
			return false
		case StatusAborted:
			return true
		default:
			if m.CASStatus(s, StatusAborted) {
				return true
			}
		}
	}
}

// TryAbortActive aborts the descriptor only if it is still StatusActive.
// It reports whether the descriptor is aborted after the call. A false
// return means the enemy reached committing/committed first.
func (m *TxMeta) TryAbortActive() bool {
	if m.CASStatus(StatusActive, StatusAborted) {
		return true
	}
	return m.Status() == StatusAborted
}
