package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalog in step, and checks that every per-layer metric names the
// end-to-end metrics it should move.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if !slices.Contains(workloadNames, w.Name) || workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, catalog has %d", len(doc.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	for i, m := range endToEnd {
		e2e[m.Name] = true
		got := doc.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, got, m)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, catalog has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, got, m)
		}
		for _, mv := range m.Moves {
			w, metric, ok := strings.Cut(mv, ":")
			if !ok || !slices.Contains(workloadNames, w) || !e2e[metric] {
				t.Errorf("%s moves %q: not a workload:end-to-end-metric pair", m.Name, mv)
			}
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks that it passes its output checks and
// reports every metric its mode owes.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := &options{workload: name, seed: 7, window: time.Second, trace: trace, small: true,
				outDir: t.TempDir(), dataDir: t.TempDir()}
			rep := execute(o, workloads[name])
			if !rep.correct() {
				t.Errorf("%s trace=%v: failed %d of %d, problems %v", name, trace, rep.failed, rep.attempted, rep.problems)
			}
			for _, m := range owedMetrics(trace) {
				if v, ok := rep.metrics[m]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: metric %s = %v, %v", name, trace, m, v, ok)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if m.Name != "ok_ratio" && rep.metrics[m.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, rep.metrics[m.Name])
					}
				}
			}
		}
	}
}

func TestCheckTotalRejectsOffByOne(t *testing.T) {
	if err := checkTotal(1_000_000, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if checkTotal(1_000_001, 1_000_000) == nil || checkTotal(999_999, 1_000_000) == nil {
		t.Fatal("a ComputeTotal off by one passed the check")
	}
}

func TestCheckGetRejectsForeignValues(t *testing.T) {
	issued := make([]atomic.Uint64, 2)
	issued[0].Store(5)
	own := makeVal(nil, "k0000001", 0, 5)
	if err := checkGet("k0000001", own, true, issued); err != nil {
		t.Fatal(err)
	}
	if err := checkGet("k0000001", makeVal(nil, "k0000001", preloadW, 0), true, issued); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string][]byte{
		"another key's value":   makeVal(nil, "k0000002", 0, 5),
		"a never-issued write":  makeVal(nil, "k0000001", 0, 6),
		"an unknown writer":     makeVal(nil, "k0000001", 7, 1),
		"a truncated value":     own[:valLen-1],
		"a prefix-sharing key":  makeVal(nil, "k00000011", 0, 5),
		"a preload with a seq":  makeVal(nil, "k0000001", preloadW, 3),
		"garbage of the length": []byte(strings.Repeat("x", valLen)),
	} {
		if checkGet("k0000001", v, true, issued) == nil {
			t.Errorf("GET returning %s passed the check", name)
		}
	}
	if checkGet("k0000001", nil, false, issued) == nil {
		t.Error("a missing preloaded key passed the check")
	}
}

func TestCheckDurableRejectsLostWrites(t *testing.T) {
	keys := []string{"a", "b"}
	acked := [][]ackRec{
		{{seq: 3, issueNs: 5, ackNs: 10}, {}},
		{{seq: 7, issueNs: 20, ackNs: 30}, {seq: 2, issueNs: 1, ackNs: 2}},
	}
	good := map[string][]byte{"a": makeVal(nil, "a", 1, 7), "b": makeVal(nil, "b", 1, 2)}
	if bad := checkDurable(keys, good, acked); len(bad) > 0 {
		t.Fatal(bad)
	}
	for name, got := range map[string]map[string][]byte{
		"a missing key": {"a": good["a"]},
		// Writer 1's write to a was issued after writer 0's was acked.
		"a write acknowledged after the one held": {"a": makeVal(nil, "a", 0, 3), "b": good["b"]},
		"an older write of the same writer":       {"a": makeVal(nil, "a", 1, 6), "b": good["b"]},
		"the preload after an acked write":        {"a": good["a"], "b": makeVal(nil, "b", preloadW, 0)},
		"another key's value":                     {"a": makeVal(nil, "b", 1, 7), "b": good["b"]},
	} {
		if bad := checkDurable(keys, got, acked); len(bad) == 0 {
			t.Errorf("reopen with %s passed the check", name)
		}
	}
	// Concurrent writes: writer 1's write was issued before writer 0's
	// was acknowledged, so either may be the survivor.
	acked[1][0].issueNs = 8
	held := map[string][]byte{"a": makeVal(nil, "a", 0, 3), "b": good["b"]}
	if bad := checkDurable(keys, held, acked); len(bad) > 0 {
		t.Fatal(bad)
	}
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h hist
	var xs []int64
	for i := 0; i < 200000; i++ {
		x := int64(math.Exp(rng.NormFloat64()*1.5 + 10)) // lognormal around 22µs
		xs = append(xs, x)
		h.observe(x)
	}
	slices.Sort(xs)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q * float64(len(xs))))
		exact := float64(xs[rank-1])
		got := h.quantile(q)
		if math.Abs(got.Ns-exact)/exact > 0.01 {
			t.Errorf("q%.3f = %.1f, exact %.1f", q, got.Ns, exact)
		}
		if got.N != uint64(len(xs)) || got.Beyond != uint64(len(xs)-rank) {
			t.Errorf("q%.3f support n=%d beyond=%d, want %d %d", q, got.N, got.Beyond, len(xs), len(xs)-rank)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{50, 100} {
		win := &window{start: time.Now()}
		win.end = win.start.Add(time.Second)
		rep := newReport()
		tally := newRoundTally()
		for k := 0; k < rounds; k++ {
			m := &merged{}
			for _, h := range []*hist{&m.read, &m.write, &m.multi, &m.lag} {
				for i := 1; i <= n; i++ {
					h.observe(int64(i) * 1000)
				}
			}
			tally.add(rep, &options{}, &round{win: win, m: m}, k)
		}
		tally.finish(rep, &options{})
		// 50 samples leave 5 beyond the p90; 100 leave 10.
		if got := len(rep.problems) > 0; got != (n == 50) {
			t.Errorf("%d samples per round: problems %v", n, rep.problems)
		}
	}
}
