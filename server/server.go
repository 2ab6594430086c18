// Package server is tbtmd: a transactional key-value server over the
// tbtm engine, speaking a pipelined length-prefixed binary protocol.
//
// The package is a thin COMPOSITION ROOT over four layers, each its own
// package with no knowledge of the ones above it:
//
//	server/wire      protocol: opcodes, statuses, framing, parsing
//	server/engine    operations: store, executor leases, batching, MULTI
//	server/durable   durability: WAL gating, checkpoints, degradation
//	server/repl      replication: WAL shipping, replica application
//	server/transport connection I/O: per-conn readers, bursts, batching
//
// Server wires them together: it builds the engine and store, wraps the
// store durable (Config.DataDir) or replica-read-only (Config.ReplicaOf),
// hands the result to the transport as an engine.KV, and implements
// transport.Host — the narrow callback surface (shutdown flag, in-flight
// accounting, stats document, replication streams) the transport needs
// from the world above it. The client (Client, Pipe) lives here too,
// speaking the server/wire protocol directly.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tbtm"
	"tbtm/internal/telemetry"
	"tbtm/internal/wal"
	"tbtm/server/durable"
	"tbtm/server/engine"
	"tbtm/server/repl"
	"tbtm/server/transport"
	"tbtm/server/wire"
)

// Config configures a Server. The zero value is usable: ZLinearizable,
// auto-sized lease pools, 1024 hash buckets.
type Config struct {
	// Consistency selects the engine's criterion (0 = ZLinearizable).
	// The server works on every backend; the acceptance workloads run at
	// least Linearizable (LSA) and Serializable (S-STM).
	Consistency tbtm.Consistency
	// Leases sizes the fast (non-blocking) lease tranche; 0 means
	// 2*GOMAXPROCS. See the executor's package comment for the contract.
	Leases int
	// BlockingLeases sizes the blocking tranche (BTAKE/WAIT); 0 means
	// 64. Parked leases hold no epoch pin, so this can be generous.
	BlockingLeases int
	// Buckets sets the value hash map's root width (0 = 1024). Only the
	// root: a bucket past 16 entries splits into a trie below it, so a
	// large key count needs no larger setting.
	Buckets int
	// MaxFrame bounds request payloads (0 = wire.DefaultMaxFrame).
	MaxFrame int
	// LongOpens overrides the classifier's long-promotion threshold
	// (0 = the adaptive package default).
	LongOpens float64
	// MaxBatch caps how many consecutive non-blocking single-key ops
	// from one pipelined burst are executed under a single lease and
	// commit window (0 = 64).
	MaxBatch int
	// TMOptions are appended to the server's own engine options;
	// invariant-bearing options (WithBlockingRetry, WithAutoClassify,
	// vector-clock WithThreads sizing) are applied after, so they win.
	TMOptions []tbtm.Option

	// DataDir enables durability: every update is appended to a
	// write-ahead log under this directory before it is acknowledged
	// (per Durability), consistent checkpoints bound replay, and New
	// recovers the directory's state before serving. Empty = in-memory
	// only. Durability requires a scalar-clock consistency criterion
	// (it logs engine commit ticks); CausallySerializable and
	// Serializable are refused.
	DataDir string
	// Durability selects what an acknowledged update means with
	// DataDir set: "strict" (default; fsynced before the reply),
	// "relaxed" (written to the OS before the reply, fsynced in the
	// background), or "none" (replied after the in-memory commit; the
	// log is best-effort).
	Durability string
	// FsyncEvery / FsyncInterval tune relaxed-mode background fsyncs
	// (0 = the WAL defaults: 256 records / 5ms).
	FsyncEvery    int
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation threshold (0 = 8 MiB).
	SegmentBytes int64
	// CheckpointBytes triggers a checkpoint once this many bytes of WAL
	// records accumulated since the last one (0 = 64 MiB).
	CheckpointBytes int64
	// WALFS overrides the filesystem the WAL writes through (fault
	// injection and crash tests); nil means the real disk.
	WALFS wal.FS

	// ReplicaOf turns the server into a read replica of the primary at
	// this address: it bootstraps from the primary's newest checkpoint,
	// applies shipped WAL records as ordinary transactions, and serves
	// reads (GET/RANGE/read-only MULTI/WAIT) from consistent local
	// snapshots; writes answer StatusReadOnly with the replica reason.
	// Mutually exclusive with DataDir — the replica's durability story
	// IS the primary's WAL. The primary must itself be durable.
	ReplicaOf string
	// ReplicaBackoff is the replica's initial reconnect delay (0 =
	// 50ms, doubling to 2s). Tests shrink it.
	ReplicaBackoff time.Duration

	// RecorderEvents sizes each flight-recorder ring (0 =
	// telemetry.DefaultRingEvents). The recorder is armed by default —
	// recording one phase event is a mutex-guarded store into a
	// preallocated slot; RecorderOff starts it disarmed, reducing every
	// record site to one atomic load.
	RecorderEvents int
	RecorderOff    bool
	// SlowOp logs any completed op slower than this threshold with its
	// phase breakdown reconstructed from the flight recorder (0
	// disables). SlowOpWriter overrides the log sink (default stderr).
	SlowOp       time.Duration
	SlowOpWriter io.Writer
}

// StatsReply is the JSON document answered to OpStats.
type StatsReply struct {
	Engine tbtm.Stats `json:"engine"`
	// Aborts breaks the engine's failed attempts down by the
	// internal/metrics taxonomy (conflict, explicit abort, snapshot
	// miss, other).
	Aborts   tbtm.AbortReasons      `json:"aborts"`
	Metrics  engine.MetricsSnapshot `json:"metrics"`
	Conns    int64                  `json:"conns"`
	UptimeMs int64                  `json:"uptime_ms"`
	// WAL is present only on durable servers (Config.DataDir set).
	WAL *WALStatsReply `json:"wal,omitempty"`
	// Repl is present only on replicas (Config.ReplicaOf set).
	Repl *repl.ReplStats `json:"repl,omitempty"`
}

// WALStatsReply is the durability section of StatsReply: the log's
// counters plus the read-only degradation gauge.
type WALStatsReply struct {
	wal.StatsSnapshot
	ReadOnly bool `json:"read_only"`
}

// Server is a tbtmd instance: one engine, one executor, one store, any
// number of listeners (normally one).
type Server struct {
	cfg   Config
	tcfg  transport.Config
	tm    *tbtm.TM
	exec  *engine.Executor
	store *engine.Store
	// kv is the serving surface the transport drives: the store itself,
	// its durable wrapper, or the replica's read-only wrapper.
	kv engine.KV

	// sysTh runs the server's own transactions (the shutdown commit). It
	// is dedicated: at shutdown every pool lease may be parked.
	sysTh *tbtm.Thread

	// cancelTh commits per-connection cancel flags when connection
	// teardown finds parked blocking ops; guarded by cancelMu (Thread
	// handles are not concurrency-safe, and teardowns are rare).
	cancelMu sync.Mutex
	cancelTh *tbtm.Thread

	// Durability state (nil without Config.DataDir): the wrapped store,
	// what recovery reconstructed, and the background checkpointer.
	dur       *durable.Store
	recovered *wal.Recovered
	ckptStop  func()

	// replica is the replication follower (nil unless Config.ReplicaOf).
	replica *repl.Replica

	// rec is the flight recorder; reg the unified metrics registry over
	// every layer's counters (built lazily — WAL and replica families
	// depend on what New wired up).
	rec     *telemetry.Recorder
	regOnce sync.Once
	reg     *telemetry.Registry

	start    time.Time
	closed   atomic.Bool
	inflight atomic.Int64 // requests between decode and response write
	conns    atomic.Int64

	mu      sync.Mutex
	ln      net.Listener
	open    map[net.Conn]struct{}
	serving sync.WaitGroup
}

// New builds a Server (and its TM) from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Consistency == 0 {
		cfg.Consistency = tbtm.ZLinearizable
	}
	if cfg.Leases <= 0 {
		cfg.Leases = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.BlockingLeases <= 0 {
		cfg.BlockingLeases = 64
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 1024
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.DataDir != "" && cfg.ReplicaOf != "" {
		return nil, fmt.Errorf("server: DataDir and ReplicaOf are mutually exclusive; a replica's durability is the primary's WAL")
	}
	if cfg.DataDir != "" &&
		(cfg.Consistency == tbtm.CausallySerializable || cfg.Consistency == tbtm.Serializable) {
		return nil, fmt.Errorf("server: durability (DataDir) requires a scalar-clock consistency criterion; %v uses vector time and has no total commit-tick order for WAL replay", cfg.Consistency)
	}
	opts := []tbtm.Option{tbtm.WithConsistency(cfg.Consistency)}
	opts = append(opts, cfg.TMOptions...)
	// The server's invariants go last so they cannot be overridden:
	// blocking ops park (never spin), update sites classify themselves,
	// and vector time bases are sized for every pooled Thread plus the
	// system, cancel, and replica-applier threads.
	opts = append(opts,
		tbtm.WithBlockingRetry(),
		tbtm.WithAutoClassify(cfg.LongOpens),
	)
	if cfg.Consistency == tbtm.CausallySerializable || cfg.Consistency == tbtm.Serializable {
		opts = append(opts, tbtm.WithThreads(cfg.Leases+cfg.BlockingLeases+3))
	}
	tm, err := tbtm.New(opts...)
	if err != nil {
		return nil, err
	}
	rec := telemetry.NewRecorder(cfg.RecorderEvents)
	rec.SetOpNames(func(op uint8) string { return wire.Op(op).String() })
	if cfg.RecorderOff {
		rec.Arm(false)
	}
	if cfg.SlowOp > 0 {
		rec.SetSlowOp(cfg.SlowOp, cfg.SlowOpWriter)
	}
	s := &Server{
		cfg:   cfg,
		tcfg:  transport.Config{MaxFrame: cfg.MaxFrame, MaxBatch: cfg.MaxBatch, Recorder: rec},
		tm:    tm,
		store: engine.NewStore(tm, cfg.Buckets),
		start: time.Now(),
		open:  make(map[net.Conn]struct{}),
		rec:   rec,
	}
	s.kv = s.store
	s.exec = engine.NewExecutor(tm, cfg.Leases, cfg.BlockingLeases, &engine.Metrics{})
	s.sysTh = tm.NewThread()
	s.cancelTh = tm.NewThread()
	if cfg.DataDir != "" {
		dur, rec, err := durable.Open(s.store, s.sysTh, durable.Config{
			Dir:           cfg.DataDir,
			FS:            cfg.WALFS,
			Mode:          cfg.Durability,
			FsyncEvery:    cfg.FsyncEvery,
			FsyncInterval: cfg.FsyncInterval,
			SegmentBytes:  cfg.SegmentBytes,
		})
		if err != nil {
			return nil, err
		}
		s.dur, s.recovered = dur, rec
		s.kv = dur
		s.ckptStop = dur.StartCheckpointer(tm.NewThread(), cfg.CheckpointBytes)
	}
	if cfg.ReplicaOf != "" {
		s.kv = repl.NewReadOnlyKV(s.store)
		s.replica = repl.StartReplica(repl.ReplicaConfig{
			Primary:  cfg.ReplicaOf,
			Store:    s.store,
			Thread:   tm.NewThread(),
			MaxFrame: cfg.MaxFrame,
			Backoff:  cfg.ReplicaBackoff,
			Ring:     rec.Ring(),
		})
	}
	return s, nil
}

// TM returns the server's engine (for embedding servers in tests and
// examples).
func (s *Server) TM() *tbtm.TM { return s.tm }

// Executor returns the server's Thread-executor.
func (s *Server) Executor() *engine.Executor { return s.exec }

// Recovery describes what durable startup reconstructed (nil on
// in-memory servers).
func (s *Server) Recovery() *wal.Recovered { return s.recovered }

// ReplicaStats snapshots the replication follower's gauges (zero value
// on non-replicas).
func (s *Server) ReplicaStats() repl.ReplStats {
	if s.replica == nil {
		return repl.ReplStats{}
	}
	return s.replica.Stats()
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listener address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on ln until Close. It returns nil after a
// graceful Close and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		cn := transport.NewConn(s, s.tcfg, s.exec, s.kv, conn)
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.open[conn] = struct{}{}
		s.serving.Add(1)
		s.mu.Unlock()
		s.conns.Add(1)
		go transport.Serve(cn)
	}
}

// Close shuts the server down gracefully: stop accepting, commit the
// shutdown flag (which wakes every parked BTAKE/WAIT — they answer
// StatusClosed), drain in-flight responses, then tear connections down.
// Safe to call more than once.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()
	// Wake parked clients; their handlers write StatusClosed responses.
	if err := s.kv.MarkClosed(s.sysTh); err != nil {
		return err
	}
	// Drain: wait (bounded) for in-flight requests to write responses.
	for deadline := time.Now().Add(5 * time.Second); s.inflight.Load() > 0; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Anything still queued for a lease answers StatusClosed from here.
	s.exec.Close()
	// Shut each connection's READ side: its reader goroutine sees EOF
	// and tears the connection down. Non-TCP connections have no
	// half-close and are closed outright.
	s.mu.Lock()
	for c := range s.open {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.CloseRead()
		} else {
			c.Close()
		}
	}
	s.mu.Unlock()
	// A reader can still be wedged writing to a client that stopped
	// reading; after a grace period close those sockets outright.
	done := make(chan struct{})
	go func() {
		s.serving.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.mu.Lock()
		for c := range s.open {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	// Replica shutdown: the applier disconnects from the primary and
	// stops; readers are gone by now.
	if s.replica != nil {
		s.replica.Stop()
	}
	// Durable shutdown: every connection and lease is drained by now, so
	// no appender races the close. The WAL drains its open batch, fsyncs
	// and closes the active segment — a clean close leaves nothing for
	// the next recovery to truncate.
	if s.ckptStop != nil {
		s.ckptStop()
	}
	if s.dur != nil {
		s.dur.Close()
	}
	return nil
}

// The transport.Host implementation: the callback surface connections
// use to reach the composition root.

// Closed reports server shutdown to the transport.
func (s *Server) Closed() bool { return s.closed.Load() }

// InflightAdd tracks requests between decode and response write.
func (s *Server) InflightAdd(delta int64) { s.inflight.Add(delta) }

// NewCancelVar allocates a connection's transactional hang-up flag.
func (s *Server) NewCancelVar() *tbtm.Var[bool] { return tbtm.NewVar(s.tm, false) }

// CancelBlocked commits a connection's hang-up flag, waking its parked
// blocking ops.
func (s *Server) CancelBlocked(v *tbtm.Var[bool]) {
	s.cancelMu.Lock()
	defer s.cancelMu.Unlock()
	_ = s.cancelTh.Atomic(tbtm.Short, func(tx tbtm.Tx) error {
		return v.Write(tx, true)
	})
}

// StatsJSON renders the OpStats reply document.
func (s *Server) StatsJSON() ([]byte, error) {
	reply := StatsReply{
		Engine:   s.tm.Stats(),
		Aborts:   s.tm.AbortReasons(),
		Metrics:  s.exec.MetricsSnapshot(),
		Conns:    s.conns.Load(),
		UptimeMs: time.Since(s.start).Milliseconds(),
	}
	if s.dur != nil {
		reply.WAL = &WALStatsReply{
			StatsSnapshot: s.dur.Log().Stats(),
			ReadOnly:      s.dur.ReadOnly(),
		}
	}
	if s.replica != nil {
		rs := s.replica.Stats()
		reply.Repl = &rs
	}
	return json.Marshal(&reply)
}

// ConnDone deregisters a torn-down connection.
func (s *Server) ConnDone(cn *transport.Conn) {
	s.mu.Lock()
	delete(s.open, cn.NetConn())
	s.mu.Unlock()
	s.conns.Add(-1)
	s.serving.Done()
}

// TraceJSON dumps the flight recorder — the OpTrace reply and the
// debug endpoint's /trace document.
func (s *Server) TraceJSON(max int) ([]byte, error) {
	return s.rec.DumpJSON(max)
}

// Replicate serves one OpReplicate subscription: durable primaries ship
// their WAL, everything else refuses (an in-memory server has no log to
// ship, and a replica must not be chained off — its applier is not a
// WAL).
func (s *Server) Replicate(st *transport.Stream, afterSeq uint64) error {
	if s.dur == nil {
		return fmt.Errorf("server: not a durable primary; replication needs -data-dir")
	}
	return repl.ServePrimary(s.dur.Log(), st, afterSeq)
}

// ParseConsistency maps a command-line name to a consistency criterion.
func ParseConsistency(name string) (tbtm.Consistency, error) {
	switch strings.ToLower(name) {
	case "lsa", "linearizable":
		return tbtm.Linearizable, nil
	case "single", "tl2", "singleversion":
		return tbtm.SingleVersion, nil
	case "causal", "cstm", "causallyserializable":
		return tbtm.CausallySerializable, nil
	case "serializable", "sstm":
		return tbtm.Serializable, nil
	case "zlin", "zstm", "zlinearizable":
		return tbtm.ZLinearizable, nil
	case "si", "sistm", "snapshotisolation":
		return tbtm.SnapshotIsolation, nil
	}
	return 0, fmt.Errorf("server: unknown consistency %q (lsa|single|causal|serializable|zlin|si)", name)
}
