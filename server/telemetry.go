// The unified telemetry plane: one registry adapting every layer's
// existing counters — engine op histograms, executor lease gauges, the
// TM's backend counters and abort-reason taxonomy, WAL group-commit
// and fsync metrics, replication lag — into Prometheus text format,
// plus the debug HTTP surface (/metrics, /trace, net/http/pprof).
//
// Families are Collect closures over live atomics; the registry holds
// no state and the serving hot path never sees a scrape.
package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"tbtm/internal/telemetry"
	"tbtm/server/wire"
)

// Recorder returns the server's flight recorder (for embedding servers
// and tools that arm/disarm or dump it directly).
func (s *Server) Recorder() *telemetry.Recorder { return s.rec }

// Registry returns the server's metrics registry, building it on first
// use (WAL and replication families register only when the server has
// those layers).
func (s *Server) Registry() *telemetry.Registry {
	s.regOnce.Do(func() { s.reg = s.buildRegistry() })
	return s.reg
}

// opLabel renders the op label pair for one opcode.
func opLabel(op wire.Op) string { return fmt.Sprintf("op=%q", op.String()) }

func (s *Server) buildRegistry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	m := s.exec.Metrics()

	// Wire ops: counts, errors, and latency by opcode, plus the
	// batching amortization counters.
	r.MustRegister(
		telemetry.Family{
			Name: "tbtmd_ops_total", Help: "Wire operations completed, by opcode.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) {
				for op := wire.Op(1); op < wire.OpMax; op++ {
					if n := m.OpLatency(op).Count(); n > 0 {
						e.Value(opLabel(op), float64(n))
					}
				}
			},
		},
		telemetry.Family{
			Name: "tbtmd_op_errors_total", Help: "Wire operations that returned an error, by opcode.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) {
				for op := wire.Op(1); op < wire.OpMax; op++ {
					if n := m.OpErrors(op); n > 0 {
						e.Value(opLabel(op), float64(n))
					}
				}
			},
		},
		telemetry.Family{
			Name: "tbtmd_op_latency_seconds", Help: "Wire operation latency, by opcode (log2 buckets).", Kind: telemetry.Histogram,
			Collect: func(e *telemetry.Emitter) {
				for op := wire.Op(1); op < wire.OpMax; op++ {
					if h := m.OpLatency(op); h.Count() > 0 {
						e.Hist(opLabel(op), h, 1e-9)
					}
				}
			},
		},
		telemetry.Family{
			Name: "tbtmd_batches_total", Help: "Pipelined batches executed under one lease.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) { e.Value("", float64(m.BatchCount())) },
		},
		telemetry.Family{
			Name: "tbtmd_batched_ops_total", Help: "Wire ops carried by pipelined batches.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) { e.Value("", float64(m.BatchedOps())) },
		},
		telemetry.Family{
			Name: "tbtmd_batch_latency_seconds", Help: "Whole-batch execution latency.", Kind: telemetry.Histogram,
			Collect: func(e *telemetry.Emitter) { e.Hist("", m.BatchLatency(), 1e-9) },
		},
	)

	// Executor lease pools and backpressure.
	r.MustRegister(
		telemetry.Family{
			Name: "tbtmd_executor_leases", Help: "Configured lease pool sizes, by tranche.", Kind: telemetry.Gauge,
			Collect: func(e *telemetry.Emitter) {
				st := s.exec.MetricsSnapshot().Executor
				e.Value(`tranche="fast"`, float64(st.FastLeases))
				e.Value(`tranche="blocking"`, float64(st.BlockingLeases))
			},
		},
		telemetry.Family{
			Name: "tbtmd_executor_in_use", Help: "Leases currently held, by tranche.", Kind: telemetry.Gauge,
			Collect: func(e *telemetry.Emitter) {
				st := s.exec.MetricsSnapshot().Executor
				e.Value(`tranche="fast"`, float64(st.FastInUse))
				e.Value(`tranche="blocking"`, float64(st.BlockingInUse))
			},
		},
		telemetry.Family{
			Name: "tbtmd_executor_waiters", Help: "Goroutines queued for a lease right now.", Kind: telemetry.Gauge,
			Collect: func(e *telemetry.Emitter) {
				e.Value("", float64(s.exec.MetricsSnapshot().Executor.Waiters))
			},
		},
		telemetry.Family{
			Name: "tbtmd_executor_acquires_total", Help: "Lease acquisitions.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) {
				e.Value("", float64(s.exec.MetricsSnapshot().Executor.Acquires))
			},
		},
		telemetry.Family{
			Name: "tbtmd_executor_acquire_waits_total", Help: "Lease acquisitions that had to queue.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) {
				e.Value("", float64(s.exec.MetricsSnapshot().Executor.AcquireWaits))
			},
		},
		telemetry.Family{
			Name: "tbtmd_executor_rejects_total", Help: "Lease acquisitions abandoned (context done or shutdown).", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) {
				e.Value("", float64(s.exec.MetricsSnapshot().Executor.Rejects))
			},
		},
		telemetry.Family{
			Name: "tbtmd_lease_wait_seconds", Help: "Wait time for lease acquisitions that queued (backpressure).", Kind: telemetry.Histogram,
			Collect: func(e *telemetry.Emitter) { e.Hist("", m.LeaseWait(), 1e-9) },
		},
	)

	// Engine backend counters (tbtm.Stats) and the abort-reason
	// taxonomy.
	r.MustRegister(
		telemetry.Family{
			Name: "tbtmd_engine_commits_total", Help: "Engine transactions committed.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.tm.Stats().Commits)) },
		},
		telemetry.Family{
			Name: "tbtmd_engine_aborts_total", Help: "Engine transactions aborted, any reason.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.tm.Stats().Aborts)) },
		},
		telemetry.Family{
			Name: "tbtmd_engine_conflicts_total", Help: "Aborts from validation failure or lost arbitration.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.tm.Stats().Conflicts)) },
		},
		telemetry.Family{
			Name: "tbtmd_engine_extensions_total", Help: "Successful snapshot extensions, by validation path.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) {
				st := s.tm.Stats()
				e.Value(`path="fast"`, float64(st.ExtensionsFast))
				e.Value(`path="full"`, float64(st.ExtensionsFull))
			},
		},
		telemetry.Family{
			Name: "tbtmd_engine_snapshot_misses_total", Help: "Aborts because no retained version was old enough.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.tm.Stats().SnapshotMisses)) },
		},
		telemetry.Family{
			Name: "tbtmd_engine_parks_total", Help: "Threads parked in blocking Retry.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.tm.Stats().Parks)) },
		},
		telemetry.Family{
			Name: "tbtmd_engine_wakeups_total", Help: "Parked threads woken by a committed update, by outcome.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) {
				st := s.tm.Stats()
				e.Value(`outcome="proceeded"`, float64(st.Wakeups-st.SpuriousWakeups))
				e.Value(`outcome="spurious"`, float64(st.SpuriousWakeups))
			},
		},
		telemetry.Family{
			Name: "tbtmd_abort_reasons_total", Help: "Failed server-op attempts, by abort-reason taxonomy.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) {
				a := s.tm.AbortReasons()
				e.Value(`reason="conflict"`, float64(a.Conflict))
				e.Value(`reason="aborted"`, float64(a.Aborted))
				e.Value(`reason="snapshot_miss"`, float64(a.SnapshotMiss))
				e.Value(`reason="other"`, float64(a.Other))
			},
		},
	)

	// Server-level gauges and the flight recorder's own health.
	r.MustRegister(
		telemetry.Family{
			Name: "tbtmd_conns", Help: "Open client connections.", Kind: telemetry.Gauge,
			Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.conns.Load())) },
		},
		telemetry.Family{
			Name: "tbtmd_inflight", Help: "Requests between decode and response write.", Kind: telemetry.Gauge,
			Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.inflight.Load())) },
		},
		telemetry.Family{
			Name: "tbtmd_uptime_seconds", Help: "Seconds since the server was built.", Kind: telemetry.Gauge,
			Collect: func(e *telemetry.Emitter) { e.Value("", time.Since(s.start).Seconds()) },
		},
		telemetry.Family{
			Name: "tbtmd_recorder_armed", Help: "1 when the flight recorder is recording.", Kind: telemetry.Gauge,
			Collect: func(e *telemetry.Emitter) {
				v := 0.0
				if s.rec.Armed() {
					v = 1
				}
				e.Value("", v)
			},
		},
		telemetry.Family{
			Name: "tbtmd_recorder_events_total", Help: "Flight-recorder events ever recorded.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.rec.Recorded())) },
		},
		telemetry.Family{
			Name: "tbtmd_recorder_dropped_total", Help: "Flight-recorder events overwritten by ring wrap.", Kind: telemetry.Counter,
			Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.rec.Dropped())) },
		},
	)

	if s.dur != nil {
		log := s.dur.Log()
		r.MustRegister(
			telemetry.Family{
				Name: "tbtmd_wal_records_total", Help: "WAL records appended.", Kind: telemetry.Counter,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(log.Stats().Records)) },
			},
			telemetry.Family{
				Name: "tbtmd_wal_batches_total", Help: "WAL group-commit batches written.", Kind: telemetry.Counter,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(log.Stats().Batches)) },
			},
			telemetry.Family{
				Name: "tbtmd_wal_fsyncs_total", Help: "WAL fsync calls.", Kind: telemetry.Counter,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(log.Stats().Fsyncs)) },
			},
			telemetry.Family{
				Name: "tbtmd_wal_bytes_total", Help: "WAL bytes written.", Kind: telemetry.Counter,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(log.Stats().Bytes)) },
			},
			telemetry.Family{
				Name: "tbtmd_wal_rotations_total", Help: "WAL segment rotations.", Kind: telemetry.Counter,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(log.Stats().Rotations)) },
			},
			telemetry.Family{
				Name: "tbtmd_wal_checkpoints_total", Help: "Checkpoints written.", Kind: telemetry.Counter,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(log.Stats().Checkpoints)) },
			},
			telemetry.Family{
				Name: "tbtmd_wal_segments", Help: "Live WAL segments on disk.", Kind: telemetry.Gauge,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(log.Stats().Segments)) },
			},
			telemetry.Family{
				Name: "tbtmd_wal_last_seq", Help: "Highest assigned WAL sequence number.", Kind: telemetry.Gauge,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(log.Stats().LastSeq)) },
			},
			telemetry.Family{
				Name: "tbtmd_wal_checkpoint_seq", Help: "Sequence covered by the newest checkpoint.", Kind: telemetry.Gauge,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(log.Stats().CheckpointSeq)) },
			},
			telemetry.Family{
				Name: "tbtmd_wal_read_only", Help: "1 when a WAL failure wedged the server read-only.", Kind: telemetry.Gauge,
				Collect: func(e *telemetry.Emitter) {
					v := 0.0
					if s.dur.ReadOnly() {
						v = 1
					}
					e.Value("", v)
				},
			},
			telemetry.Family{
				Name: "tbtmd_wal_fsync_seconds", Help: "WAL fsync latency (write+sync of one group-commit batch).", Kind: telemetry.Histogram,
				Collect: func(e *telemetry.Emitter) { e.Hist("", log.FsyncLatency(), 1e-9) },
			},
			telemetry.Family{
				Name: "tbtmd_wal_batch_records", Help: "Records coalesced per group-commit batch.", Kind: telemetry.Histogram,
				Collect: func(e *telemetry.Emitter) { e.Hist("", log.BatchSizes(), 1) },
			},
		)
	}

	if s.replica != nil {
		r.MustRegister(
			telemetry.Family{
				Name: "tbtmd_repl_connected", Help: "1 while the replica is streaming from its primary.", Kind: telemetry.Gauge,
				Collect: func(e *telemetry.Emitter) {
					v := 0.0
					if s.replica.Stats().Connected {
						v = 1
					}
					e.Value("", v)
				},
			},
			telemetry.Family{
				Name: "tbtmd_repl_applied_seq", Help: "Highest WAL sequence applied locally.", Kind: telemetry.Gauge,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.replica.Stats().AppliedSeq)) },
			},
			telemetry.Family{
				Name: "tbtmd_repl_primary_seq", Help: "Highest WAL sequence the primary reported.", Kind: telemetry.Gauge,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.replica.Stats().PrimarySeq)) },
			},
			telemetry.Family{
				Name: "tbtmd_repl_lag", Help: "Primary seq minus applied seq (records behind).", Kind: telemetry.Gauge,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.replica.Stats().Lag)) },
			},
			telemetry.Family{
				Name: "tbtmd_repl_records_applied_total", Help: "Shipped WAL records applied.", Kind: telemetry.Counter,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.replica.Stats().Records)) },
			},
			telemetry.Family{
				Name: "tbtmd_repl_bootstraps_total", Help: "Checkpoint bootstraps applied.", Kind: telemetry.Counter,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.replica.Stats().Bootstraps)) },
			},
			telemetry.Family{
				Name: "tbtmd_repl_reconnects_total", Help: "Reconnect attempts to the primary.", Kind: telemetry.Counter,
				Collect: func(e *telemetry.Emitter) { e.Value("", float64(s.replica.Stats().Reconnects)) },
			},
		)
	}
	return r
}

// DebugHandler serves the observability surface: Prometheus metrics at
// /metrics, the flight-recorder dump at /trace (?max=N bounds the
// event count), and the standard pprof endpoints under /debug/pprof/.
// tbtmd mounts it on -debug-addr.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.Registry().Handler())
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		max := 0
		if q := req.URL.Query().Get("max"); q != "" {
			max, _ = strconv.Atoi(q)
		}
		doc, err := s.TraceJSON(max)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(doc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
