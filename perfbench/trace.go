package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tbtm/internal/telemetry"
)

// span is one call the benchmark made into a layer's public function:
// bank.Transfer / ComputeTotal, Client.Get / Set / MultiExec, or a Pipe
// request from enqueue to Recv. Times are ns since the round's clock
// origin; (client, seq) is the request id, seq being the wire sequence
// number (the worker's op count for library calls).
type span struct {
	name       string
	client     int
	seq        uint64
	start, end int64
}

// maxSpanLines bounds the span file; every span still counts in the
// metrics.
const maxSpanLines = 100000

// eventLog polls servers' flight recorders while the traced slices
// run. Each poll keeps the events that ended after the previous poll's
// newest, so a ring that wraps between polls loses only what it
// overwrote.
type eventLog struct {
	stop   chan struct{}
	done   chan struct{}
	events []telemetry.Event
}

// pollEvery is short enough that a ring of telemetry.DefaultRingEvents
// rarely wraps between polls at the rates these workloads reach (about
// 30k events/s per ring), and long enough that the snapshot's copy and
// sort stay a small part of the tracing overhead.
const pollEvery = 50 * time.Millisecond

func startEventLog(win *window, recs ...*telemetry.Recorder) *eventLog {
	l := &eventLog{stop: make(chan struct{}), done: make(chan struct{})}
	water := make([]int64, len(recs))
	go func() {
		defer close(l.done)
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-l.stop:
				return
			}
			if !win.traced.Load() {
				continue
			}
			for i, rec := range recs {
				newest := water[i]
				for _, ev := range rec.Snapshot(0) {
					end := ev.TS + ev.Dur
					if end > water[i] {
						l.events = append(l.events, ev)
					}
					newest = max(newest, end)
				}
				water[i] = newest
			}
		}
	}()
	return l
}

func (l *eventLog) finish() []telemetry.Event {
	close(l.stop)
	<-l.done
	return l.events
}

type connSeq struct {
	conn uint32
	seq  uint64
}

// serverOp is one server-side op envelope (a batch of n requests
// starting at its key's seq) with the phases recorded under it.
type serverOp struct {
	n        uint64
	children []telemetry.Event
}

// blockingPhase reports the server phases a transport self time excludes:
// lease wait, engine execution and the durable layer's gate and ack.
func blockingPhase(k telemetry.EventKind) bool {
	switch k {
	case telemetry.EvLeaseWait, telemetry.EvExec, telemetry.EvWALGate, telemetry.EvFsync:
		return true
	}
	return false
}

// maxBatch mirrors the server's default MaxBatch: a request's batch
// envelope starts at most this many sequence numbers before it.
const maxBatch = 64

// spanMetrics turns a traced round's spans and server events into the
// per-layer span metrics and returns the round's span-file lines
// (at most maxSpanLines/rounds). connOf maps a client index to its
// server connection id; span ids are prefixed with the round.
func spanMetrics(ms metricSet, o *options, k int, spans []span, events []telemetry.Event, connOf map[int]uint32) []string {
	ops := map[connSeq]*serverOp{}
	phase := map[telemetry.EventKind]*hist{}
	var frames, decodes uint64
	for _, ev := range events {
		if ev.Kind == telemetry.EvOp {
			key := connSeq{ev.Conn, ev.Seq}
			if ops[key] == nil {
				ops[key] = &serverOp{}
			}
			ops[key].n = uint64(ev.Aux)
			continue
		}
		if phase[ev.Kind] == nil {
			phase[ev.Kind] = &hist{}
		}
		phase[ev.Kind].observe(ev.Dur)
		if ev.Kind == telemetry.EvDecode {
			frames += uint64(ev.Aux)
			decodes++
		}
		if blockingPhase(ev.Kind) {
			key := connSeq{ev.Conn, ev.Seq}
			if ops[key] == nil {
				ops[key] = &serverOp{}
			}
			ops[key].children = append(ops[key].children, ev)
		}
	}
	phaseMean := func(kind telemetry.EventKind) float64 {
		if h := phase[kind]; h != nil {
			return h.mean()
		}
		return 0
	}

	byName := map[string]*hist{}
	var self hist
	var joinable, joined int
	limit := maxSpanLines / rounds
	lines := make([]string, 0, min(len(spans), limit))
	id := 0
	for _, s := range spans {
		if byName[s.name] == nil {
			byName[s.name] = &hist{}
		}
		byName[s.name].observe(s.end - s.start)
		id++
		root := id
		req := fmt.Sprintf("r%dc%d:%d", k, s.client, s.seq)
		if len(lines) < limit {
			lines = append(lines, fmt.Sprintf(`{"id":"r%d.%d","name":%q,"start_ns":%d,"end_ns":%d,"parent":"","req":%q}`, k, root, s.name, s.start, s.end, req))
		}
		conn, ok := connOf[s.client]
		if !ok {
			continue
		}
		joinable++
		op, first := findServerOp(ops, conn, s.seq)
		if op == nil {
			continue
		}
		joined++
		// A batch's phases serve all its requests: each carries 1/n.
		var covered float64
		for _, ch := range op.children {
			covered += float64(ch.Dur) / float64(op.n)
			id++
			if len(lines) < limit {
				lines = append(lines, fmt.Sprintf(`{"id":"r%d.%d","name":%q,"server_ts_ns":%d,"dur_ns":%d,"parent":"r%d.%d","req":%q,"batch_first_seq":%d,"shared_by":%d}`,
					k, id, ch.Kind.String(), ch.TS, ch.Dur, k, root, req, first, op.n))
			}
		}
		self.observe(int64(float64(s.end-s.start) - covered))
	}
	mean := func(name string) float64 {
		if h := byName[name]; h != nil {
			return h.mean()
		}
		return 0
	}
	ms["trace.spans"] = float64(len(spans))
	if o.workload == "bank" {
		ms["stm.transfer_ns"] = mean("transfer")
		ms["stm.total_ns"] = mean("total")
		return lines
	}
	ms["trace.joined_share"] = ratio(float64(joined), float64(joinable))
	ms["transport.rtt_ns.get"] = mean("get")
	ms["transport.rtt_ns.set"] = mean("set")
	ms["transport.rtt_ns.multi"] = mean("multi")
	ms["transport.self_ns"] = self.mean()
	ms["transport.decode_ns"] = phaseMean(telemetry.EvDecode)
	ms["transport.flush_ns"] = phaseMean(telemetry.EvFlush)
	ms["transport.frames_per_decode"] = ratio(float64(frames), float64(decodes))
	ms["durable.gate_wait_ns"] = phaseMean(telemetry.EvWALGate)
	ms["durable.ack_wait_ns"] = phaseMean(telemetry.EvFsync)
	ms["repl.apply_ns"] = phaseMean(telemetry.EvReplApply)
	return lines
}

// findServerOp returns the op envelope covering request seq on conn
// and the seq it starts at.
func findServerOp(ops map[connSeq]*serverOp, conn uint32, seq uint64) (*serverOp, uint64) {
	for back := uint64(0); back < maxBatch && back < seq; back++ {
		if op := ops[connSeq{conn, seq - back}]; op != nil && op.n > back {
			return op, seq - back
		}
	}
	return nil, 0
}

func writeSpans(rep *report, o *options, lines []string) string {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		rep.problem("span file: %v", err)
		return ""
	}
	path := filepath.Join(o.outDir, o.workload+"-spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		rep.problem("span file: %v", err)
		return ""
	}
	bw := bufio.NewWriter(f)
	for _, l := range lines {
		bw.WriteString(l)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		rep.problem("span file: %v", err)
		return ""
	}
	if err := f.Close(); err != nil {
		rep.problem("span file: %v", err)
		return ""
	}
	return path
}

// zeroAbsentLayers reports, as 0, the per-layer metrics of layers the
// workload does not run (no WAL on kv-mem, no server on bank, ...), and
// lists them in the detail.
func zeroAbsentLayers(rep *report) {
	var absent []string
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.Name]; !ok {
			rep.metrics[m.Name] = 0
			absent = append(absent, m.Name)
		}
	}
	rep.detail["not_exercised"] = absent
}
