package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"tbtm"
	"tbtm/internal/telemetry"
	"tbtm/server"
	"tbtm/server/wire"
)

// kvSpec is one tbtmd workload: its key space, its connections and the
// primary's durability. The server otherwise runs at its default
// server.Config{}.
type kvSpec struct {
	shape      kvShape
	smallKeys  int // key count for the package's own tests
	roles      []connRole
	durability string // "" = in-memory; else DataDir is set with this mode
	replica    bool
}

var (
	kvMem = kvSpec{
		shape:     kvShape{keys: 100000, zipf: true, multiGets: 2, multiSets: 2},
		smallKeys: 2000,
		roles: []connRole{
			{depth: 1, get: 0.87, set: 0.10, peer: 1, posts: true},
			{depth: 1, get: 0.87, set: 0.10, peer: 0, posts: true},
		},
	}
	kvDurable = kvSpec{
		shape:     kvShape{keys: 4096, multiGets: 2, multiSets: 2},
		smallKeys: 512,
		roles: []connRole{
			{depth: 16, get: 0.45, set: 0.45, peer: 1, posts: true},
			{depth: 16, get: 0.45, set: 0.45, peer: 0, posts: true},
		},
		durability: "strict",
	}
	// kvReplica's writer is synchronous: a pipelined writer keeps the
	// primary, the stream and the replica's apply busy on every CPU, and
	// a replica GET's latency then hangs on whether it finds a CPU free,
	// which drifts with the host's load from run to run.
	kvReplica = kvSpec{
		shape:     kvShape{keys: 4096, multiSets: 2},
		smallKeys: 512,
		roles: []connRole{
			{depth: 1, set: 0.9, peer: -1, posts: true},
			{replica: true, depth: 1, get: 1, peer: 0},
		},
		durability: "relaxed",
		replica:    true,
	}
)

func runKVMem(o *options, rep *report) error     { return runKV(o, rep, kvMem) }
func runKVDurable(o *options, rep *report) error { return runKV(o, rep, kvDurable) }
func runKVReplica(o *options, rep *report) error { return runKV(o, rep, kvReplica) }

const kvWarmupOps = 4000

type kvSys struct {
	run              *kvRun
	primary, replica *served
	dir              string
	conns            []*conn
	// connOf maps a connection index to its server-side id.
	connOf map[int]uint32
}

func (s *kvSys) close() {
	for _, cn := range s.conns {
		cn.c.Close()
	}
	if s.replica != nil {
		s.replica.close()
	}
	if s.primary != nil {
		s.primary.close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *kvSys) servers() []*served {
	if s.replica != nil {
		return []*served{s.primary, s.replica}
	}
	return []*served{s.primary}
}

func buildKV(o *options, spec kvSpec, k int) (sys *kvSys, err error) {
	shape := spec.shape
	warm := kvWarmupOps
	if o.small {
		shape.keys, warm = spec.smallKeys, 200
	}
	sys = &kvSys{run: newKVRun(shape, spec.roles), connOf: map[int]uint32{}}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	cfg := server.Config{}
	if spec.durability != "" {
		if sys.dir, err = os.MkdirTemp(o.dataDir, o.workload+"-"); err != nil {
			return nil, err
		}
		cfg.DataDir, cfg.Durability = sys.dir, spec.durability
	}
	if sys.primary, err = serve(cfg); err != nil {
		return nil, err
	}
	if err := preload(sys.primary.addr, sys.run.keys); err != nil {
		return nil, err
	}
	if spec.replica {
		if sys.replica, err = serve(server.Config{ReplicaOf: sys.primary.addr}); err != nil {
			return nil, err
		}
		if err := awaitReplica(sys.primary, sys.replica, 30*time.Second); err != nil {
			return nil, err
		}
	}
	for i, role := range spec.roles {
		target := sys.primary
		if role.replica {
			target = sys.replica
		}
		cn, err := dial(target.addr, role.depth > 1)
		if err != nil {
			return nil, err
		}
		sys.conns = append(sys.conns, cn)
		id, err := cn.serverConnID(sys.run.keys[0], target.srv.Recorder())
		if err != nil {
			return nil, err
		}
		sys.connOf[i] = id
	}
	// Warm-up: a fixed op count per connection, all at once, from a seed
	// stream the window never uses.
	errs := make([]error, len(sys.conns))
	var wg sync.WaitGroup
	for i, cn := range sys.conns {
		wg.Add(1)
		go func(i int, cn *conn) {
			defer wg.Done()
			l := newConnLoop(sys.run, cn, i, sys.run.gen(roundSeed(o.seed, k)^0x5eed, i), nil)
			errs[i] = l.run(warm)
		}(i, cn)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warm-up on connection %d: %w", i, err)
		}
	}
	for i := range sys.run.probes {
		sys.run.probes[i].clear()
	}
	return sys, nil
}

// lastSeq is the primary's highest assigned WAL sequence number.
func lastSeq(s *served) (uint64, error) {
	doc, err := s.srv.StatsJSON()
	if err != nil {
		return 0, err
	}
	var st server.StatsReply
	if err := json.Unmarshal(doc, &st); err != nil {
		return 0, err
	}
	if st.WAL == nil {
		return 0, fmt.Errorf("primary has no WAL")
	}
	return st.WAL.LastSeq, nil
}

// awaitReplica waits until the replica applied the primary's last
// assigned sequence number.
func awaitReplica(primary, replica *served, limit time.Duration) error {
	want, err := lastSeq(primary)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(limit)
	for {
		got := replica.srv.ReplicaStats().AppliedSeq
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica applied seq %d, primary at %d after %s", got, want, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

func runKV(o *options, rep *report, spec kvSpec) error {
	env := rep.detail["env"].(map[string]any)
	switch spec.durability {
	case "":
		env["durability"], env["flush_policy"] = "in-memory", "no WAL"
	case "strict":
		env["durability"], env["flush_policy"] = "strict", "group commit fsynced before the reply"
	case "relaxed":
		env["durability"], env["flush_policy"] = "relaxed", "written before the reply, fsynced in the background every 256 records or 5ms (WAL defaults)"
	}
	if spec.durability != "" {
		if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
			return err
		}
		env["data_dir_fs"] = fsType(o.dataDir)
	}
	return runRounds(o, rep, func(o *options, rep *report, k int) (*round, error) { return kvRound(o, rep, spec, k) })
}

// kvRound starts fresh servers, loads and warms them, measures them for
// one round's window and checks their state afterwards.
func kvRound(o *options, rep *report, spec kvSpec, k int) (*round, error) {
	t0 := time.Now()
	sys, err := buildKV(o, spec, k)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rd := &round{setupS: time.Since(t0).Seconds(), layer: metricSet{}}
	r := sys.run
	before := takeCounters(sys)
	heap := startHeapSampler()
	p0 := takeProc()
	win := newWindow(o)
	r.win = win
	var events *eventLog
	if o.trace {
		var recs []*telemetry.Recorder
		for _, s := range sys.servers() {
			recs = append(recs, s.srv.Recorder())
		}
		events = startEventLog(win, recs...)
	}
	lag := startLagSampler(sys.replica)
	ws, stuck := runWindow(o, win, len(sys.conns), func(i int, w *worker) {
		l := newConnLoop(r, sys.conns[i], i, r.gen(roundSeed(o.seed, k), i), w)
		if err := l.run(0); err != nil {
			w.failed.Add(uint64(w.inflight.Load()))
			w.inflight.Store(0)
			w.problem("connection %d: %v", i, err)
		}
	})
	lagSamples := lag.finish()
	var evs []telemetry.Event
	if events != nil {
		evs = events.finish()
	}
	p1 := takeProc()
	rd.heapPeak = heap.finish()
	after := takeCounters(sys)
	rd.win, rd.ws = win, ws
	rd.m = tally(rep, ws, stuck)
	if len(stuck) > 0 {
		// The stuck ops hold engine state; do not wait on a shutdown
		// that cannot finish. Process exit reclaims everything.
		rd.stuck = true
		return rd, nil
	}
	if d := after.repl.Reconnects - before.repl.Reconnects; d > 0 {
		rep.problem("round %d: replica reconnected %d times during the window", k, d)
	}
	if d := after.repl.Bootstraps - before.repl.Bootstraps; d > 0 {
		rep.problem("round %d: replica bootstrapped %d times during the window", k, d)
	}
	for _, cn := range sys.conns {
		cn.c.Close()
	}
	sys.conns = nil

	var replayNs float64
	switch {
	case spec.replica:
		rep.attempted++
		if err := checkReplica(sys); err != nil {
			rep.failed++
			rep.problem("round %d: replica check: %v", k, err)
		}
	case spec.durability != "":
		rep.attempted++
		if replayNs, err = checkReopen(sys, spec); err != nil {
			rep.failed++
			rep.problem("round %d: reopen check: %v", k, err)
		}
	}
	sys.close()

	if o.trace {
		kvLayerMetrics(rd.layer, before, after, win.seconds(), rd.m.ops)
		if sys.replica != nil {
			rd.layer["repl.lag_records_p99"] = percentile(lagSamples, 0.99)
		}
		if spec.durability != "" {
			rd.layer["wal.replay_ns_per_record"] = replayNs
		}
		rd.layer["stm.allocs_per_commit"] = ratio(float64(p1.mallocs-p0.mallocs), float64(after.stm.Commits-before.stm.Commits))
		procMetrics(rd.layer, p0, p1, rd.m.ops)
		rd.spanLines = spanMetrics(rd.layer, o, k, rd.m.spans, evs, sys.connOf)
	}
	return rd, nil
}

// checkReplica waits for the replica to reach the primary's last
// sequence number and compares every key on both.
func checkReplica(sys *kvSys) error {
	if err := awaitReplica(sys.primary, sys.replica, 30*time.Second); err != nil {
		return err
	}
	pc, err := dial(sys.primary.addr, false)
	if err != nil {
		return err
	}
	defer pc.c.Close()
	rc, err := dial(sys.replica.addr, false)
	if err != nil {
		return err
	}
	defer rc.c.Close()
	var mismatches []string
	for _, key := range sys.run.keys {
		pv, pok, err := pc.c.Get(key)
		if err != nil {
			return err
		}
		pv = append([]byte(nil), pv...)
		rv, rok, err := rc.c.Get(key)
		if err != nil {
			return err
		}
		if pok != rok || !bytes.Equal(pv, rv) {
			mismatches = append(mismatches, key)
		}
	}
	if len(mismatches) > 0 {
		return fmt.Errorf("%d keys differ between primary and replica, first %s", len(mismatches), mismatches[0])
	}
	return nil
}

// checkReopen closes the primary, reopens its data directory and checks
// that every key holds its last acknowledged value or a later one. It
// returns the reopen time per replayed WAL record.
func checkReopen(sys *kvSys, spec kvSpec) (float64, error) {
	if err := sys.primary.close(); err != nil {
		return 0, fmt.Errorf("closing the primary: %w", err)
	}
	sys.primary = nil
	t0 := time.Now()
	srv, err := server.New(server.Config{DataDir: sys.dir, Durability: spec.durability})
	if err != nil {
		return 0, fmt.Errorf("reopening: %w", err)
	}
	reopen := time.Since(t0)
	rec := srv.Recovery()
	defer srv.Close()
	if bad := checkDurable(sys.run.keys, rec.Keys, sys.run.acked); len(bad) > 0 {
		return 0, fmt.Errorf("%d keys wrong after reopen, first: %s", len(bad), bad[0])
	}
	return ratio(float64(reopen.Nanoseconds()), float64(rec.Records)), nil
}

// kvCounters are the layer counters read at a window boundary, summed
// over the workload's servers.
type kvCounters struct {
	stm                  tbtm.Stats
	reasons              tbtm.AbortReasons
	opSum, opCount       [3]uint64 // get, set, multi
	batchSum, batchCount uint64
	leaseSum, leaseCount uint64
	acquires, waits      uint64
	batchedOps           uint64
	busyLeases           int
	recorded, dropped    uint64
	userBytes            uint64
	wal                  map[string]float64
	repl                 struct{ Records, Reconnects, Bootstraps uint64 }
}

var kvOps = [3]wire.Op{wire.OpGet, wire.OpSet, wire.OpMulti}

func takeCounters(sys *kvSys) kvCounters {
	var c kvCounters
	for _, s := range sys.servers() {
		st, ab := s.srv.TM().Stats(), s.srv.TM().AbortReasons()
		c.stm = addStats(c.stm, st)
		c.reasons = tbtm.AbortReasons{Conflict: c.reasons.Conflict + ab.Conflict, Aborted: c.reasons.Aborted + ab.Aborted,
			SnapshotMiss: c.reasons.SnapshotMiss + ab.SnapshotMiss, Other: c.reasons.Other + ab.Other}
		ex := s.srv.Executor()
		m := ex.Metrics()
		for i, op := range kvOps {
			h := m.OpLatency(op)
			c.opSum[i] += h.Sum()
			c.opCount[i] += h.Count()
		}
		c.batchSum += m.BatchLatency().Sum()
		c.batchCount += m.BatchLatency().Count()
		c.leaseSum += m.LeaseWait().Sum()
		c.leaseCount += m.LeaseWait().Count()
		snap := ex.MetricsSnapshot()
		c.acquires += snap.Executor.Acquires
		c.waits += snap.Executor.AcquireWaits
		c.batchedOps += m.BatchedOps()
		c.busyLeases += ex.FastLeases()
		c.recorded += s.srv.Recorder().Recorded()
		c.dropped += s.srv.Recorder().Dropped()
	}
	c.wal = scrapeWAL(sys.primary.srv)
	c.userBytes = sys.run.userBytes.Load()
	if sys.replica != nil {
		rs := sys.replica.srv.ReplicaStats()
		c.repl.Records, c.repl.Reconnects, c.repl.Bootstraps = rs.Records, rs.Reconnects, rs.Bootstraps
	}
	return c
}

func addStats(a, b tbtm.Stats) tbtm.Stats {
	a.Commits += b.Commits
	a.Aborts += b.Aborts
	a.Extensions += b.Extensions
	a.LongCommits += b.LongCommits
	a.LongAborts += b.LongAborts
	a.ZoneCrosses += b.ZoneCrosses
	a.ZoneWaits += b.ZoneWaits
	return a
}

// scrapeWAL reads the WAL families from the server's Prometheus
// registry, parsed in-process.
func scrapeWAL(srv *server.Server) map[string]float64 {
	out := map[string]float64{}
	var buf bytes.Buffer
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		return out
	}
	sc, err := telemetry.ParseScrape(&buf)
	if err != nil {
		return out
	}
	for _, name := range []string{"tbtmd_wal_records_total", "tbtmd_wal_batches_total", "tbtmd_wal_fsyncs_total", "tbtmd_wal_bytes_total", "tbtmd_wal_checkpoints_total"} {
		if v, ok := sc.Value(name); ok {
			out[name] = v
		}
	}
	if h := sc.Hist("tbtmd_wal_fsync_seconds"); h != nil {
		out["fsync_sum_s"], out["fsync_count"] = h.Sum, float64(h.Count)
	}
	return out
}

// kvLayerMetrics sets the stm, engine, durable, repl and telemetry
// per-layer metrics from window-boundary counter deltas.
func kvLayerMetrics(ms metricSet, a, b kvCounters, secs float64, ops uint64) {
	d := b.stm.Sub(a.stm)
	// Server Threads are pooled, so attempts are commits plus aborts.
	attempts := d.Commits + d.LongCommits + d.Aborts + d.LongAborts
	stmMetrics(ms, d, subReasons(b.reasons, a.reasons), attempts, secs)

	names := [3]string{"get", "set", "multi"}
	var busy float64
	for i, n := range names {
		sum := float64(b.opSum[i] - a.opSum[i])
		busy += sum
		ms["engine.exec_ns."+n] = ratio(sum, float64(b.opCount[i]-a.opCount[i]))
	}
	ms["engine.exec_ns.batch"] = ratio(float64(b.batchSum-a.batchSum), float64(b.batchCount-a.batchCount))
	ms["engine.lease_wait_ns"] = ratio(float64(b.leaseSum-a.leaseSum), float64(b.leaseCount-a.leaseCount))
	ms["engine.lease_waits_per_acquire"] = ratio(float64(b.waits-a.waits), float64(b.acquires-a.acquires))
	ms["engine.ops_per_batch"] = ratio(float64(b.batchedOps-a.batchedOps), float64(b.batchCount-a.batchCount))
	ms["engine.busy_share"] = ratio(busy, secs*1e9*float64(b.busyLeases))

	w := func(name string) float64 { return b.wal[name] - a.wal[name] }
	if len(b.wal) > 0 {
		ms["wal.records_per_batch"] = ratio(w("tbtmd_wal_records_total"), w("tbtmd_wal_batches_total"))
		ms["wal.fsyncs_per_s"] = w("tbtmd_wal_fsyncs_total") / secs
		ms["wal.fsync_ns"] = ratio(w("fsync_sum_s")*1e9, w("fsync_count"))
		ms["wal.bytes_per_user_byte"] = ratio(w("tbtmd_wal_bytes_total"), float64(b.userBytes-a.userBytes))
		ms["wal.checkpoints"] = w("tbtmd_wal_checkpoints_total")
	}
	if b.repl.Records > 0 {
		ms["repl.applied_per_s"] = float64(b.repl.Records-a.repl.Records) / secs
		ms["repl.reconnects"] = float64(b.repl.Reconnects - a.repl.Reconnects)
		ms["repl.bootstraps"] = float64(b.repl.Bootstraps - a.repl.Bootstraps)
	}
	ms["telemetry.events_per_op"] = ratio(float64(b.recorded-a.recorded), float64(ops))
	ms["telemetry.dropped_per_s"] = float64(b.dropped-a.dropped) / secs
}

// lagSampler samples the replica's lag in records every 10ms.
type lagSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startLagSampler(replica *served) *lagSampler {
	l := &lagSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if replica == nil {
			<-l.stop
			return
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				l.samples = append(l.samples, float64(replica.srv.ReplicaStats().Lag))
			case <-l.stop:
				return
			}
		}
	}()
	return l
}

func (l *lagSampler) finish() []float64 {
	close(l.stop)
	<-l.done
	return l.samples
}

// percentile is the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	return s[min(max(i-1, 0), len(s)-1)]
}
