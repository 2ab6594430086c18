package lsa

import (
	"testing"
	"time"

	"tbtm/internal/core"
)

// crossedCommitters sets up the shape of the commit-validation deadlock:
// t2 read a and write-locked b, t1 read b and write-locked a. t2 is then
// frozen in StatusCommitting under the given commit tick, as if it had
// reached its own validation. The commit log is off so t1's commit
// takes the full read-set walk. A cleanup aborts t2, which releases a
// t1 commit still waiting on it.
func crossedCommitters(t *testing.T, t2Tick func(clockNow uint64) uint64) (t1, t2 *Tx) {
	t.Helper()
	s := New(Config{CommitLog: -1})
	a, b := s.NewObject(0), s.NewObject(0)
	th1, th2 := s.NewThread(), s.NewThread()
	// Advance the clock so an earlier tick than t1's is available.
	for i := 0; i < 4; i++ {
		atomically(t, th1, false, func(tx *Tx) error { return tx.Write(s.NewObject(0), i) })
	}

	t2 = th2.Begin(core.Short, false)
	if _, err := t2.Read(a); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(b, 2); err != nil {
		t.Fatal(err)
	}
	t1 = th1.Begin(core.Short, false)
	if _, err := t1.Read(b); err != nil {
		t.Fatal(err)
	}
	if err := t1.Write(a, 1); err != nil {
		t.Fatal(err)
	}
	if !t2.Meta().CASStatus(core.StatusActive, core.StatusCommitting) {
		t.Fatal("t2 not active")
	}
	t2.Meta().SetCommitTick(t2Tick(s.Clock().Now(0)))
	t.Cleanup(func() {
		t2.Meta().CASStatus(core.StatusCommitting, core.StatusAborted)
		t2.Abort()
	})
	return t1, t2
}

// commitAsync runs tx.Commit on its own goroutine.
func commitAsync(tx *Tx) <-chan error {
	done := make(chan error, 1)
	go func() { done <- tx.Commit() }()
	return done
}

// TestCommitValidationSkipsLaterCommitter is the regression for the
// commit-validation deadlock between two committers that each read what
// the other writes: a committer whose installs land after t1's commit
// time cannot change what t1 validates, so t1 must not wait for it.
// Before the fix t1 waited here forever, and so did t2 on t1.
func TestCommitValidationSkipsLaterCommitter(t *testing.T) {
	t1, _ := crossedCommitters(t, func(now uint64) uint64 { return now + 1000 })
	select {
	case err := <-commitAsync(t1):
		if err != nil {
			t.Fatalf("t1 commit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("t1's validation waited on a committer whose installs land after its commit time")
	}
}

// TestCommitValidationWaitsForEarlierCommitter pins the wait the fix
// keeps: a committer holding a smaller tick may still install a version
// newest at t1's commit time, so t1 waits until it finishes.
func TestCommitValidationWaitsForEarlierCommitter(t *testing.T) {
	t1, t2 := crossedCommitters(t, func(now uint64) uint64 { return now - 1 })
	done := commitAsync(t1)
	select {
	case err := <-done:
		t.Fatalf("t1 committed (err %v) while an earlier committer held its read", err)
	case <-time.After(50 * time.Millisecond):
	}
	t2.Meta().CASStatus(core.StatusCommitting, core.StatusAborted)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("t1 commit after t2 aborted: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("t1 still waiting after the earlier committer aborted")
	}
}
