package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// rounds is how many times a run sets its system up from scratch and
// measures it, for an equal share of the window each. Every reported
// figure is the median over the rounds: on a shared host a system's
// speed varies more between set-ups (a fresh server, a fresh engine)
// than within one, so independent rounds steady a run far better than
// one long window.
const rounds = 10

// grace is how long after a round's window an op may still finish;
// an op still running then counts as failed and the run reports it
// instead of hanging.
const grace = 5 * time.Second

// sliceLen is the traced run's alternation period: spans are recorded
// in every other slice, so the untraced slices in between give the
// tracing overhead from the same run.
const sliceLen = 250 * time.Millisecond

// metricSet maps metric names to values.
type metricSet map[string]float64

// worker is one closed-loop caller's private tally. Counters other
// goroutines read while it may still run (at a deadline miss) are
// atomic; the rest is read only after it returned.
type worker struct {
	attempted atomic.Uint64
	failed    atomic.Uint64
	inflight  atomic.Int64
	done      [2]atomic.Uint64 // completed ops, by tracing state at issue

	read, write, multi, lag hist
	// long counts committed read-only transactions.
	long     uint64
	spans    []span
	problems []string
}

func (w *worker) problem(format string, args ...any) {
	if len(w.problems) < 10 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// window is the timed interval of one round.
type window struct {
	start, end time.Time
	traced     atomic.Bool
	// tracedNs / untracedNs accumulate the slice time in each state.
	tracedNs, untracedNs atomic.Int64
}

func (w *window) over(now time.Time) bool { return !now.Before(w.end) }

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// newWindow starts a round's timed window now; in a traced run the
// first slice is traced.
func newWindow(o *options) *window {
	win := &window{start: time.Now()}
	win.end = win.start.Add(o.window / rounds)
	win.traced.Store(o.trace)
	return win
}

// runWindow runs body on n workers until the window ends. Workers whose
// op has not finished by the end plus grace are reported as stuck.
func runWindow(o *options, win *window, n int, body func(i int, w *worker)) ([]*worker, []int) {
	stopSlices := make(chan struct{})
	var slicesDone sync.WaitGroup
	if o.trace {
		slicesDone.Add(1)
		go func() {
			defer slicesDone.Done()
			last := win.start
			tick := time.NewTicker(sliceLen)
			defer tick.Stop()
			for {
				select {
				case now := <-tick.C:
					win.account(last, now)
					last = now
					win.traced.Store(!win.traced.Load())
				case <-stopSlices:
					win.account(last, win.end)
					return
				}
			}
		}()
	}
	ws := make([]*worker, n)
	finished := make([]chan struct{}, n)
	for i := range ws {
		ws[i] = &worker{}
		finished[i] = make(chan struct{})
		go func(i int) {
			defer close(finished[i])
			body(i, ws[i])
		}(i)
	}
	time.Sleep(time.Until(win.end))
	close(stopSlices)
	slicesDone.Wait()
	deadline := time.After(time.Until(win.end.Add(grace)))
	var stuck []int
	for i := range ws {
		select {
		case <-finished[i]:
		case <-deadline:
			stuck = append(stuck, i)
		}
	}
	return ws, stuck
}

func (w *window) account(from, to time.Time) {
	if to.After(w.end) {
		to = w.end
	}
	d := to.Sub(from).Nanoseconds()
	if d <= 0 {
		return
	}
	if w.traced.Load() {
		w.tracedNs.Add(d)
	} else {
		w.untracedNs.Add(d)
	}
}

// round is what one set-up-and-measure round yields.
type round struct {
	setupS   float64
	win      *window
	ws       []*worker
	m        *merged
	heapPeak float64
	// layer holds the round's per-layer metrics (traced runs).
	layer metricSet
	// spanLines is the round's part of the span file.
	spanLines []string
	// stuck is set when an op outlived the round's deadline.
	stuck bool
}

// runRounds runs one workload round after round, stopping at the first
// that fails to set up or leaves an op stuck, and turns the rounds into
// the run's metrics.
func runRounds(o *options, rep *report, one func(o *options, rep *report, k int) (*round, error)) error {
	n := rounds
	if o.small {
		n = 2
	}
	t := newRoundTally()
	var err error
	for k := 0; k < n; k++ {
		var r *round
		if r, err = one(o, rep, k); err != nil {
			break
		}
		t.add(rep, o, r, k)
		if r.stuck {
			break
		}
	}
	if t.n > 0 {
		t.finish(rep, o)
	}
	return err
}

// merged is the tally of every worker of a round that finished.
type merged struct {
	read, write, multi, lag hist
	long                    uint64
	spans                   []span
	// ops counts completed ops of all workers, stuck ones included.
	ops uint64
}

// tally folds a round's workers into the report; stuck workers'
// in-flight ops count as failed and their other state is left unread.
func tally(rep *report, ws []*worker, stuck []int) *merged {
	m := &merged{}
	isStuck := map[int]bool{}
	for _, i := range stuck {
		isStuck[i] = true
		n := ws[i].inflight.Load()
		rep.failed += uint64(n)
		rep.problem("worker %d: %d ops unfinished %s after the window", i, n, grace)
	}
	for i, w := range ws {
		rep.attempted += w.attempted.Load()
		rep.failed += w.failed.Load()
		m.ops += w.done[0].Load() + w.done[1].Load()
		if isStuck[i] {
			continue
		}
		m.read.merge(&w.read)
		m.write.merge(&w.write)
		m.multi.merge(&w.multi)
		m.lag.merge(&w.lag)
		m.long += w.long
		m.spans = append(m.spans, w.spans...)
		for _, p := range w.problems {
			rep.problem("worker %d: %s", i, p)
		}
	}
	return m
}

// roundTally collects each round's figures as the round ends, so
// nothing of a finished round stays live into the next (it would show
// in heap_peak_mb).
type roundTally struct {
	n        int
	perRound map[string][]float64
	support  map[string][]quantileResult
	lines    []string
}

func newRoundTally() *roundTally {
	return &roundTally{perRound: map[string][]float64{}, support: map[string][]quantileResult{}}
}

// add records round k's figures. A percentile needs at least ten
// samples beyond it in every round (except in traced runs, which report
// no end-to-end metric, and the package's own tiny runs).
func (t *roundTally) add(rep *report, o *options, r *round, k int) {
	t.n++
	put := func(name string, v float64) { t.perRound[name] = append(t.perRound[name], v) }
	need := uint64(10)
	if o.small || o.trace {
		need = 0
	}
	secs := r.win.seconds()
	put("setup_s", r.setupS)
	put("ops_per_s", float64(r.m.ops)/secs)
	put("long_per_s", float64(r.m.long)/secs)
	put("heap_peak_mb", r.heapPeak)
	for _, c := range []struct {
		name string
		h    *hist
	}{{"read", &r.m.read}, {"write", &r.m.write}, {"multi", &r.m.multi}, {"repl_lag", &r.m.lag}} {
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50_us", 0.50}, {"_p90_us", 0.90}} {
			name := c.name + q.suffix
			res := c.h.quantile(q.q)
			t.support[name] = append(t.support[name], res)
			put(name, res.Ns/1e3)
			if res.N == 0 || res.Beyond < need {
				rep.problem("%s: round %d has %d samples beyond it (%d in all), need %d", name, k, res.Beyond, res.N, need)
			}
		}
	}
	if o.trace {
		tracedOverhead(r)
		for name, v := range r.layer {
			put(name, v)
		}
		t.lines = append(t.lines, r.spanLines...)
	}
}

// finish sets the run's metrics: every figure is the median of its
// per-round values. The per-round values and the sample support of each
// percentile go into the detail.
func (t *roundTally) finish(rep *report, o *options) {
	for name, vs := range t.perRound {
		rep.metrics[name] = median(vs)
	}
	rep.metrics["ok_ratio"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	rep.detail["rounds"] = t.n
	rep.detail["by_round"] = t.perRound
	rep.detail["samples_by_round"] = t.support
	if o.trace {
		rep.detail["span_file"] = writeSpans(rep, o, t.lines)
		zeroAbsentLayers(rep)
	}
}

// tracedOverhead sets a traced round's traced and untraced op rates
// and the tracing overhead between them.
func tracedOverhead(r *round) {
	var done [2]uint64
	for _, w := range r.ws {
		done[0] += w.done[0].Load()
		done[1] += w.done[1].Load()
	}
	if tn, un := r.win.tracedNs.Load(), r.win.untracedNs.Load(); tn > 0 && un > 0 {
		traced := float64(done[1]) / (float64(tn) / 1e9)
		untraced := float64(done[0]) / (float64(un) / 1e9)
		r.layer["trace.traced_ops_per_s"] = traced
		r.layer["trace.untraced_ops_per_s"] = untraced
		r.layer["trace.overhead_ratio"] = 1 - ratio(traced, untraced)
	}
}

// procSnap is the Go runtime's and the OS's view of the process at one
// window boundary.
type procSnap struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

func takeProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{at: time.Now(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// procMetrics sets the proc.* per-layer metrics over [a, b] for ops
// completed operations.
func procMetrics(ms metricSet, a, b procSnap, ops uint64) {
	secs := b.at.Sub(a.at).Seconds()
	n := float64(ops)
	ms["proc.cpu_us_per_op"] = ratio(float64((b.cpu - a.cpu).Microseconds()), n)
	ms["proc.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), n)
	ms["proc.bytes_per_op"] = ratio(float64(b.bytes-a.bytes), n)
	ms["proc.gc_cycles_per_s"] = float64(b.gcs-a.gcs) / secs
	ms["proc.gc_pause_us_per_s"] = float64(b.pauseNs-a.pauseNs) / 1e3 / secs
}

// heapSampler tracks the peak live heap while a window runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	// The live-heap metric is only set by a finished GC cycle; one here
	// also starts every window from the same collected heap.
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, sample[0].Value.Uint64())
			}
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// envStamp records what the numbers depend on besides the code.
func envStamp(o *options) map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"seed":       o.seed,
		"seconds":    o.window.Seconds(),
		"trace":      o.trace,
		"note":       "durable latencies are this host's filesystem and page cache, not a device's",
	}
}

// fsType names the filesystem holding dir, from the longest matching
// mount point in /proc/self/mounts ("unknown" elsewhere).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	if p, err := filepath.EvalSymlinks(abs); err == nil {
		abs = p
	}
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/") {
			if len(mnt) > best {
				best, typ = len(mnt), fields[2]
			}
		}
	}
	return typ
}
