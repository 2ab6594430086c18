package main

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"tbtm"
	"tbtm/internal/bank"
)

// The paper's bank run (§5.5): 1,000 accounts, worker 0 mixes 80%
// Transfer with 20% read-only ComputeTotal, worker 1 runs Transfer only,
// accounts picked uniformly, scans never yield.
const (
	bankAccounts   = 1000
	bankInitial    = 1000
	bankTotalShare = 0.2
	bankWarmupOps  = 20000
)

type bankSys struct {
	b       *bank.Bank
	threads []*tbtm.Thread
}

// bankOp is one generated input: a transfer (from, to, amount) or, with
// total set, a ComputeTotal.
type bankOp struct {
	total    bool
	from, to int
	amount   int64
}

func bankGen(seed uint64, worker int) func() bankOp {
	rng := rand.New(rand.NewPCG(seed, uint64(worker)))
	return func() bankOp {
		if worker == 0 && rng.Float64() < bankTotalShare {
			return bankOp{total: true}
		}
		from := rng.IntN(bankAccounts)
		to := rng.IntN(bankAccounts - 1)
		if to >= from {
			to++
		}
		return bankOp{from: from, to: to, amount: 1 + rng.Int64N(100)}
	}
}

// checkTotal is the output check on every ComputeTotal.
func checkTotal(got, want int64) error {
	if got != want {
		return fmt.Errorf("ComputeTotal = %d, want %d", got, want)
	}
	return nil
}

func newBankSys(o *options, k int) (*bankSys, error) {
	tm, err := tbtm.New(tbtm.WithConsistency(tbtm.ZLinearizable))
	if err != nil {
		return nil, err
	}
	s := &bankSys{b: bank.New(tm, bankAccounts, bankInitial), threads: []*tbtm.Thread{tm.NewThread(), tm.NewThread()}}
	warm := bankWarmupOps
	if o.small {
		warm = 500
	}
	// Warm-up: the same mix from a seed stream the window never uses,
	// one worker after the other (a fixed op count, so set-up time
	// measures work, not a timer).
	for i, th := range s.threads {
		next := bankGen(roundSeed(o.seed, k)^0x5eed, i)
		for n := 0; n < warm; n++ {
			op := next()
			if op.total {
				tot, err := s.b.ComputeTotal(th)
				if err != nil {
					return nil, err
				}
				if err := checkTotal(tot, s.b.ExpectedTotal()); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			} else if err := s.b.Transfer(th, op.from, op.to, op.amount); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func runBank(o *options, rep *report) error { return runRounds(o, rep, bankRound) }

// bankRound sets up a fresh engine and bank and measures it for one
// round's window.
func bankRound(o *options, rep *report, k int) (*round, error) {
	t0 := time.Now()
	sys, err := newBankSys(o, k)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := &round{setupS: time.Since(t0).Seconds(), layer: metricSet{}}
	tm := sys.b.TM()
	want := sys.b.ExpectedTotal()

	// probe carries the commit time (ns since the window start, +1 so
	// zero means empty) of a sampled Transfer to the next ComputeTotal
	// that begins after it.
	var probe atomic.Int64
	stats0, reasons0 := tm.Stats(), tm.AbortReasons()
	var begins0 [2]uint64
	for i, th := range sys.threads {
		begins0[i] = th.Begins()
	}
	heap := startHeapSampler()
	p0 := takeProc()
	win := newWindow(o)
	ws, stuck := runWindow(o, win, 2, func(i int, w *worker) {
		th := sys.threads[i]
		next := bankGen(roundSeed(o.seed, k), i)
		for {
			op := next()
			t0 := time.Now()
			if win.over(t0) {
				return
			}
			traced := win.traced.Load()
			w.attempted.Add(1)
			w.inflight.Store(1)
			var err error
			var pending int64
			name := "transfer"
			if op.total {
				name = "total"
				pending = probe.Swap(0)
				var tot int64
				tot, err = sys.b.ComputeTotal(th)
				if err == nil {
					err = checkTotal(tot, want)
				}
			} else {
				err = sys.b.Transfer(th, op.from, op.to, op.amount)
			}
			t1 := time.Now()
			w.inflight.Store(0)
			if err != nil {
				w.failed.Add(1)
				w.problem("%s: %v", name, err)
				continue
			}
			d := t1.Sub(t0).Nanoseconds()
			if op.total {
				w.read.observe(d)
				w.long++
				if pending > 0 {
					w.lag.observe(t1.Sub(win.start).Nanoseconds() - (pending - 1))
				}
			} else {
				w.write.observe(d)
				w.multi.observe(d)
				probe.CompareAndSwap(0, t1.Sub(win.start).Nanoseconds()+1)
			}
			if traced {
				w.done[1].Add(1)
				w.spans = append(w.spans, span{name: name, client: i, seq: w.attempted.Load(), start: t0.Sub(win.start).Nanoseconds(), end: t1.Sub(win.start).Nanoseconds()})
			} else {
				w.done[0].Add(1)
			}
		}
	})
	p1 := takeProc()
	r.heapPeak = heap.finish()
	r.win, r.ws = win, ws
	r.m = tally(rep, ws, stuck)
	if len(stuck) > 0 {
		r.stuck = true
		return r, nil
	}

	// The end-of-run invariant, on a quiesced bank.
	rep.attempted++
	if err := sys.b.CheckInvariant(sys.threads[0]); err != nil {
		rep.failed++
		rep.problem("end of round %d: %v", k, err)
	}

	if o.trace {
		d := tm.Stats().Sub(stats0)
		var begins uint64
		for i, th := range sys.threads {
			begins += th.Begins() - begins0[i]
		}
		stmMetrics(r.layer, d, subReasons(tm.AbortReasons(), reasons0), begins, win.seconds())
		r.layer["stm.allocs_per_commit"] = ratio(float64(p1.mallocs-p0.mallocs), float64(d.Commits+d.LongCommits))
		procMetrics(r.layer, p0, p1, r.m.ops)
		r.spanLines = spanMetrics(r.layer, o, k, r.m.spans, nil, nil)
	}
	return r, nil
}

// roundSeed derives round k's input stream from the run's seed.
func roundSeed(seed uint64, k int) uint64 { return seed*rounds + uint64(k) }

func subReasons(a, b tbtm.AbortReasons) tbtm.AbortReasons {
	return tbtm.AbortReasons{
		Conflict:     a.Conflict - b.Conflict,
		Aborted:      a.Aborted - b.Aborted,
		SnapshotMiss: a.SnapshotMiss - b.SnapshotMiss,
		Other:        a.Other - b.Other,
	}
}

// stmMetrics sets the stm.* per-layer metrics from window deltas of
// TM.Stats, TM.AbortReasons and the Threads' begin counts.
func stmMetrics(ms metricSet, d tbtm.Stats, ab tbtm.AbortReasons, begins uint64, secs float64) {
	commits := float64(d.Commits + d.LongCommits)
	aborts := float64(d.Aborts + d.LongAborts)
	ms["stm.commits_per_s"] = commits / secs
	ms["stm.long_commits_per_s"] = float64(d.LongCommits) / secs
	ms["stm.extensions_per_commit"] = ratio(float64(d.Extensions), commits)
	ms["stm.zone_crosses_per_s"] = float64(d.ZoneCrosses) / secs
	ms["stm.zone_waits_per_s"] = float64(d.ZoneWaits) / secs
	ms["stm.abort_ratio"] = ratio(aborts, aborts+commits)
	ms["stm.aborts.conflict"] = float64(ab.Conflict)
	ms["stm.aborts.aborted"] = float64(ab.Aborted)
	ms["stm.aborts.snapshot_miss"] = float64(ab.SnapshotMiss)
	ms["stm.aborts.other"] = float64(ab.Other)
	if begins > 0 {
		ms["stm.attempts_per_commit"] = ratio(float64(begins), commits)
	}
}
