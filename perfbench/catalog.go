package main

// The metric catalog. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds (TestCatalogMatchesBenchmarkJSON
// keeps the two in step); this file also records, for each per-layer
// metric, which end-to-end metric on which workload a change to that
// layer should move. README.md says what each metric means on each
// workload.

// workloadNames are the runnable workloads. BENCHMARK.json gates all
// but kv-durable: its pace is the fsync latency of the host's shared
// disk, which drifts between runs by more than the largest bound.
var workloadNames = []string{"bank", "kv-mem", "kv-durable", "kv-replica"}

type e2eMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"ok_ratio", "ratio", "higher", 0.01},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_p90_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"write_p90_us", "us", "lower", 0.25},
	{"long_per_s", "tx/s", "higher", 0.25},
	{"multi_p50_us", "us", "lower", 0.25},
	{"multi_p90_us", "us", "lower", 0.25},
	{"repl_lag_p50_us", "us", "lower", 0.25},
	{"repl_lag_p90_us", "us", "lower", 0.25},
	{"heap_peak_mb", "MiB", "lower", 0.2},
}

type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	// Moves names the end-to-end metrics, as workload:metric, that a
	// change to this layer should move; empty means it should move none.
	Moves []string
}

var (
	movesSTM       = []string{"bank:ops_per_s", "bank:long_per_s", "bank:write_p50_us"}
	movesEngine    = []string{"kv-mem:read_p50_us", "kv-mem:write_p50_us", "kv-durable:ops_per_s"}
	movesTransport = []string{"kv-mem:read_p50_us", "kv-mem:ops_per_s", "kv-durable:ops_per_s"}
	movesDurable   = []string{"kv-durable:write_p50_us", "kv-durable:write_p90_us", "kv-durable:multi_p50_us", "kv-durable:multi_p90_us", "kv-durable:ops_per_s", "kv-replica:write_p50_us", "kv-replica:write_p90_us"}
	movesRepl      = []string{"kv-replica:repl_lag_p50_us", "kv-replica:repl_lag_p90_us"}
	movesTelemetry = []string{"kv-mem:ops_per_s", "kv-durable:ops_per_s", "kv-replica:ops_per_s"}
	movesProc      = []string{"bank:ops_per_s", "kv-mem:ops_per_s", "kv-durable:ops_per_s", "kv-replica:ops_per_s", "bank:read_p90_us", "kv-mem:read_p90_us", "kv-durable:write_p90_us", "kv-replica:repl_lag_p90_us"}
	movesTrace     = []string{}
)

var perLayer = []layerMetric{
	{"stm.commits_per_s", "1/s", "higher", "stm", movesSTM},
	{"stm.long_commits_per_s", "1/s", "higher", "stm", movesSTM},
	{"stm.extensions_per_commit", "ratio", "lower", "stm", movesSTM},
	{"stm.zone_crosses_per_s", "1/s", "lower", "stm", movesSTM},
	{"stm.zone_waits_per_s", "1/s", "lower", "stm", movesSTM},
	{"stm.abort_ratio", "ratio", "lower", "stm", movesSTM},
	{"stm.aborts.conflict", "count", "lower", "stm", movesSTM},
	{"stm.aborts.aborted", "count", "lower", "stm", movesSTM},
	{"stm.aborts.snapshot_miss", "count", "lower", "stm", movesSTM},
	{"stm.aborts.other", "count", "lower", "stm", movesSTM},
	{"stm.attempts_per_commit", "ratio", "lower", "stm", movesSTM},
	{"stm.transfer_ns", "ns", "lower", "stm", movesSTM},
	{"stm.total_ns", "ns", "lower", "stm", movesSTM},
	{"stm.allocs_per_commit", "count", "lower", "stm", movesSTM},

	{"engine.exec_ns.get", "ns", "lower", "engine", movesEngine},
	{"engine.exec_ns.set", "ns", "lower", "engine", movesEngine},
	{"engine.exec_ns.multi", "ns", "lower", "engine", movesEngine},
	{"engine.exec_ns.batch", "ns", "lower", "engine", movesEngine},
	{"engine.lease_wait_ns", "ns", "lower", "engine", movesEngine},
	{"engine.lease_waits_per_acquire", "ratio", "lower", "engine", movesEngine},
	{"engine.ops_per_batch", "ratio", "higher", "engine", movesEngine},
	{"engine.busy_share", "ratio", "lower", "engine", movesEngine},

	{"transport.rtt_ns.get", "ns", "lower", "transport", movesTransport},
	{"transport.rtt_ns.set", "ns", "lower", "transport", movesTransport},
	{"transport.rtt_ns.multi", "ns", "lower", "transport", movesTransport},
	{"transport.self_ns", "ns", "lower", "transport", movesTransport},
	{"transport.decode_ns", "ns", "lower", "transport", movesTransport},
	{"transport.flush_ns", "ns", "lower", "transport", movesTransport},
	{"transport.frames_per_decode", "ratio", "higher", "transport", movesTransport},

	{"wal.records_per_batch", "ratio", "higher", "durable", movesDurable},
	{"wal.fsyncs_per_s", "1/s", "lower", "durable", movesDurable},
	{"wal.fsync_ns", "ns", "lower", "durable", movesDurable},
	{"wal.bytes_per_user_byte", "ratio", "lower", "durable", movesDurable},
	{"durable.gate_wait_ns", "ns", "lower", "durable", movesDurable},
	{"durable.ack_wait_ns", "ns", "lower", "durable", movesDurable},
	{"wal.checkpoints", "count", "lower", "durable", movesDurable},
	{"wal.replay_ns_per_record", "ns", "lower", "durable", movesDurable},

	{"repl.applied_per_s", "1/s", "higher", "repl", movesRepl},
	{"repl.apply_ns", "ns", "lower", "repl", movesRepl},
	{"repl.lag_records_p99", "count", "lower", "repl", movesRepl},
	{"repl.reconnects", "count", "lower", "repl", movesRepl},
	{"repl.bootstraps", "count", "lower", "repl", movesRepl},

	{"telemetry.events_per_op", "ratio", "lower", "telemetry", movesTelemetry},
	{"telemetry.dropped_per_s", "1/s", "lower", "telemetry", movesTelemetry},

	{"proc.cpu_us_per_op", "us", "lower", "proc", movesProc},
	{"proc.allocs_per_op", "count", "lower", "proc", movesProc},
	{"proc.bytes_per_op", "count", "lower", "proc", movesProc},
	{"proc.gc_cycles_per_s", "1/s", "lower", "proc", movesProc},
	{"proc.gc_pause_us_per_s", "us", "lower", "proc", movesProc},

	{"trace.traced_ops_per_s", "ops/s", "higher", "trace", movesTrace},
	{"trace.untraced_ops_per_s", "ops/s", "higher", "trace", movesTrace},
	{"trace.overhead_ratio", "ratio", "lower", "trace", movesTrace},
	{"trace.spans", "count", "higher", "trace", movesTrace},
	{"trace.joined_share", "ratio", "higher", "trace", movesTrace},
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
