// Command tbtmd serves a tbtm instance over TCP: a transactional
// key-value server speaking the length-prefixed binary protocol of
// package tbtm/server (GET/SET/DEL/CAS, consistent RANGE scans, atomic
// MULTI scripts, and blocking BTAKE/WAIT that park server-side without
// consuming an engine thread).
//
// Usage:
//
//	tbtmd                               # ZLinearizable on :7420
//	tbtmd -addr 127.0.0.1:7420 -consistency lsa -leases 8
//	tbtmd -stats-every 10s              # log per-interval engine stats
//	tbtmd -duration 30s                 # serve, then exit gracefully (CI smoke)
//	tbtmd -data-dir /var/lib/tbtmd      # durable: WAL + checkpoints + recovery
//	tbtmd -data-dir d -durability relaxed -fsync-interval 2ms
//	tbtmd -replica-of 10.0.0.1:7420     # read replica following that primary's WAL
//	tbtmd -debug-addr 127.0.0.1:7421    # /metrics (Prometheus), /trace, /debug/pprof
//	tbtmd -slow-op 10ms                 # log slow ops with their phase breakdown
//
// The flight recorder is armed by default: per-connection pooled rings
// of phase events (decode, lease wait, engine exec, WAL gate, fsync wait,
// response flush) dumpable via the TRACE wire verb, the debug
// endpoint's /trace, or SIGUSR1 (to stderr). -flight-recorder=false
// disarms it; -slow-op additionally logs any op over the threshold
// with its per-phase time breakdown inline.
//
// With -data-dir the server write-ahead-logs every update commit and
// recovers the store from the latest checkpoint plus the log tail on
// startup (truncating at the first torn or corrupt record). -durability
// picks the acknowledgement contract: strict (default) acknowledges
// only after fsync, relaxed after the OS write with group fsync in the
// background, none never fsyncs outside rotation. Requires a
// scalar-clock criterion (not causal/serializable).
//
// With -replica-of the server is a read replica: it bootstraps from the
// primary's newest checkpoint, tails its WAL, applies every record as
// an ordinary engine transaction, serves reads (GET/RANGE/read-only
// MULTI, and WAIT woken by replicated writes) from snapshot-consistent
// local state, and refuses writes with a replica-specific read-only
// status. STATS reports the replication lag.
//
// SIGINT/SIGTERM shut the server down gracefully: parked clients are
// woken with StatusClosed, in-flight responses drain, then connections
// close.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tbtm"
	"tbtm/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tbtmd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tbtmd", flag.ContinueOnError)
	addr := fs.String("addr", ":7420", "listen address")
	consistency := fs.String("consistency", "zlin", "engine criterion: lsa|single|causal|serializable|zlin|si")
	leases := fs.Int("leases", 0, "fast lease pool size (0 = 2*GOMAXPROCS)")
	blockingLeases := fs.Int("blocking-leases", 0, "blocking lease pool size (0 = 64)")
	buckets := fs.Int("buckets", 0, "store hash buckets (0 = 1024)")
	versions := fs.Int("versions", 0, "retained versions per object (0 = engine default)")
	statsEvery := fs.Duration("stats-every", 0, "log per-interval engine stats at this period (0 = off)")
	duration := fs.Duration("duration", 0, "serve for this long, then exit gracefully (0 = until signal)")
	dataDir := fs.String("data-dir", "", "durability directory for WAL + checkpoints (empty = in-memory only)")
	durability := fs.String("durability", "strict", "WAL ack mode with -data-dir: strict|relaxed|none")
	fsyncEvery := fs.Int("fsync-every", 0, "relaxed mode: fsync after this many records (0 = 256)")
	fsyncInterval := fs.Duration("fsync-interval", 0, "relaxed mode: fsync at least this often (0 = 5ms)")
	segmentBytes := fs.Int64("segment-bytes", 0, "rotate WAL segments at this size (0 = 8MiB)")
	checkpointBytes := fs.Int64("checkpoint-bytes", 0, "checkpoint when live WAL bytes exceed this (0 = 64MiB)")
	replicaOf := fs.String("replica-of", "", "follow the durable primary at this address as a read replica (excludes -data-dir)")
	replicaBackoff := fs.Duration("replica-backoff", 0, "replica initial reconnect delay (0 = 50ms, doubling to 2s)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics (Prometheus), /trace and /debug/pprof on this address (empty = off)")
	slowOp := fs.Duration("slow-op", 0, "log any op slower than this with its phase breakdown (0 = off)")
	flightRecorder := fs.Bool("flight-recorder", true, "arm the flight recorder (phase-event rings behind TRACE and SIGUSR1)")
	traceRing := fs.Int("trace-ring", 0, "flight-recorder events per ring (0 = 4096)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := server.ParseConsistency(*consistency)
	if err != nil {
		return err
	}
	cfg := server.Config{
		Consistency:     c,
		Leases:          *leases,
		BlockingLeases:  *blockingLeases,
		Buckets:         *buckets,
		DataDir:         *dataDir,
		Durability:      *durability,
		FsyncEvery:      *fsyncEvery,
		FsyncInterval:   *fsyncInterval,
		SegmentBytes:    *segmentBytes,
		CheckpointBytes: *checkpointBytes,
		ReplicaOf:       *replicaOf,
		ReplicaBackoff:  *replicaBackoff,
		RecorderEvents:  *traceRing,
		RecorderOff:     !*flightRecorder,
		SlowOp:          *slowOp,
	}
	if *versions > 0 {
		cfg.TMOptions = append(cfg.TMOptions, tbtm.WithVersions(*versions))
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if rec := srv.Recovery(); rec != nil {
		torn := ""
		if rec.TornTail {
			torn = ", torn tail truncated"
		}
		log.Printf("tbtmd: recovered %d keys from %s (%d log records over %d segments, checkpoint seq %d, %d corrupt records skipped%s, epoch %d)",
			len(rec.Keys), *dataDir, rec.Records, rec.Segments, rec.CheckpointSeq, rec.Skipped, torn, rec.Epoch)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	mode := "off"
	if *dataDir != "" {
		mode = *durability
	}
	role := ""
	if *replicaOf != "" {
		role = fmt.Sprintf(" replica-of=%s", *replicaOf)
	}
	log.Printf("tbtmd: serving %s on %s (leases=%s blocking=%s durability=%s%s)",
		*consistency, ln.Addr(), cfgOrDefault(*leases, "auto"), cfgOrDefault(*blockingLeases, "64"), mode, role)

	if *debugAddr != "" {
		dln, derr := net.Listen("tcp", *debugAddr)
		if derr != nil {
			return derr
		}
		defer dln.Close()
		log.Printf("tbtmd: debug endpoint (/metrics, /trace, /debug/pprof) on %s", dln.Addr())
		go func() { _ = http.Serve(dln, srv.DebugHandler()) }()
	}

	// SIGUSR1 dumps the flight recorder to stderr (one JSON document
	// per signal) without disturbing service.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			doc, terr := srv.TraceJSON(0)
			if terr != nil {
				log.Printf("tbtmd: trace dump: %v", terr)
				continue
			}
			os.Stderr.Write(append(doc, '\n'))
		}
	}()

	stop := make(chan struct{})
	closeDone := make(chan error, 1)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sigc:
			log.Printf("tbtmd: %v — shutting down", s)
		case <-stop:
		}
		closeDone <- srv.Close()
	}()
	if *duration > 0 {
		time.AfterFunc(*duration, func() { close(stop) })
	}

	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			prev := srv.TM().Stats()
			for {
				select {
				case <-tick.C:
				case <-stop:
					return
				}
				cur := srv.TM().Stats()
				d := cur.Sub(prev)
				prev = cur
				repl := ""
				if *replicaOf != "" {
					rs := srv.ReplicaStats()
					repl = fmt.Sprintf(" repl-lag=%d repl-applied=%d repl-connected=%v", rs.Lag, rs.AppliedSeq, rs.Connected)
				}
				log.Printf("tbtmd: interval commits=%d aborts=%d conflicts=%d parks=%d wakeups=%d%s",
					d.Commits+d.LongCommits, d.Aborts+d.LongAborts, d.Conflicts, d.Parks, d.Wakeups, repl)
			}
		}()
	}

	if err := srv.Serve(ln); err != nil {
		// A real accept failure, not a graceful close: exit with it.
		return err
	}
	// Serve returns nil only after Close began; wait for the graceful
	// shutdown — the shutdown-flag commit that wakes parked clients and
	// the in-flight drain — to finish before the process exits.
	return <-closeDone
}

// cfgOrDefault renders a zero-valued flag as its effective default in
// the startup log line.
func cfgOrDefault(v int, def string) string {
	if v > 0 {
		return fmt.Sprint(v)
	}
	return def
}
