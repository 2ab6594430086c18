// Command perfbench is the repository benchmark: the paper's bank run on
// the tbtm library plus three tbtmd traffic mixes (in-memory, strict
// durable, primary+replica), each driven in-process from one closed-loop
// generator over the public API.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It prints every metric by name with its unit, then one detail line
// (environment stamp, sample counts behind each percentile, checks),
// and as its last line one JSON result object. It exits non-zero when
// an output check fails or an op fails. See README.md in this
// directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	// outDir receives the traced run's span file; dataDir holds the
	// durable workloads' data directories.
	outDir, dataDir string
	// small shrinks key spaces, set-up repetitions and warm-ups for the
	// package's own tests.
	small bool
}

// report collects one run's outcome.
type report struct {
	attempted uint64
	failed    uint64
	problems  []string
	metrics   map[string]float64
	detail    map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, detail: map[string]any{}}
}

// problem records a failed output check or an unexpected error.
func (r *report) problem(format string, args ...any) {
	const keep = 20
	if len(r.problems) < keep {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == keep {
		r.problems = append(r.problems, "further problems omitted")
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// hardLimit bounds a whole run: a hang past it still reports a failed
// result rather than running into the caller's timeout.
const hardLimit = 170 * time.Second

func main() {
	var o options
	var seed int64
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench-out", "directory for the traced run's span file")
	flag.StringVar(&o.dataDir, "data", ".bench_build/perfbench-data", "directory for the durable workloads' data")
	flag.Parse()
	o.seed = uint64(seed)
	o.window = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	run := workloads[o.workload]
	if run == nil || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	time.AfterFunc(hardLimit, func() {
		rep := newReport()
		rep.attempted, rep.failed = 1, 1
		rep.problem("run exceeded %s: an op or a shutdown hung", hardLimit)
		emit(os.Stdout, &o, rep)
		os.Exit(1)
	})
	rep := execute(&o, run)
	emit(os.Stdout, &o, rep)
	if !rep.correct() {
		os.Exit(1)
	}
}

var workloads = map[string]func(*options, *report) error{
	"bank":       runBank,
	"kv-mem":     runKVMem,
	"kv-durable": runKVDurable,
	"kv-replica": runKVReplica,
}

// execute runs one workload and checks that it produced every metric
// its mode owes.
func execute(o *options, run func(*options, *report) error) *report {
	rep := newReport()
	rep.detail["env"] = envStamp(o)
	if err := run(o, rep); err != nil {
		rep.problem("%s: %v", o.workload, err)
	}
	if rep.attempted == 0 {
		rep.attempted = 1
		rep.failed++
		rep.problem("no op was attempted")
	}
	for _, name := range owedMetrics(o.trace) {
		if _, ok := rep.metrics[name]; !ok {
			rep.problem("metric %s was not measured", name)
		}
	}
	return rep
}

func owedMetrics(trace bool) []string {
	var names []string
	if trace {
		for _, m := range perLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range endToEnd {
			names = append(names, m.Name)
		}
	}
	return names
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the metric table, the detail line and, last, the result.
func emit(f *os.File, o *options, rep *report) {
	out := resultOut{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, name := range owedMetrics(o.trace) {
		v, ok := rep.metrics[name]
		if !ok {
			continue
		}
		out.Metrics[name] = metricOut{Value: v, Unit: unitOf(name)}
		fmt.Fprintf(f, "%-32s %16.4f %s\n", name, v, unitOf(name))
	}
	rep.detail["workload"] = o.workload
	rep.detail["problems"] = rep.problems
	if d, err := json.Marshal(map[string]any{"detail": rep.detail}); err == nil {
		fmt.Fprintf(f, "%s\n", d)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(f, "%s\n", line)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
