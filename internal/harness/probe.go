package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tbtm"
	"tbtm/internal/bank"
	"tbtm/internal/metrics"
	"tbtm/internal/workload"
)

// ProbeConfig parameterizes a commit-probability measurement: the
// paper's motivating claim ("long transactions can have a much lower
// likelihood of committing than smaller transactions") made measurable.
// A probe transaction reads Length accounts and writes private state;
// it is attempted exactly once (no retry), under a fixed background
// transfer load, and the first-attempt commit rate is recorded.
type ProbeConfig struct {
	// Name labels the series.
	Name string
	// Options configure the TM under test.
	Options []tbtm.Option
	// Long classifies the probe transaction as Long (Z-STM routes it
	// through zone ordering; elsewhere it only informs the contention
	// manager).
	Long bool
	// Lengths is the read-set-size axis (default {2, 10, 50, 200, 1000}).
	Lengths []int
	// Accounts is the object universe (default 1,000; Lengths are capped
	// to it).
	Accounts int
	// Churn is the number of background transfer goroutines (default 2).
	Churn int
	// Attempts is the number of single-shot probes per length (default
	// 200).
	Attempts int
	// Seed makes runs repeatable.
	Seed int64
}

func (c *ProbeConfig) defaults() {
	if len(c.Lengths) == 0 {
		c.Lengths = []int{2, 10, 50, 200, 1000}
	}
	if c.Accounts == 0 {
		c.Accounts = 1000
	}
	if c.Churn == 0 {
		c.Churn = 2
	}
	if c.Attempts == 0 {
		c.Attempts = 200
	}
}

// ProbePoint is the measurement for one transaction length.
type ProbePoint struct {
	Length      int
	Probability float64
	Attempts    uint64
	Breakdown   string
	Latency     time.Duration // mean attempt latency
}

// ProbeResult is one series of the commit-probability experiment.
type ProbeResult struct {
	Name   string
	Points []ProbePoint
}

// RunProbe measures first-attempt commit probability as a function of
// transaction length for one TM configuration.
func RunProbe(cfg ProbeConfig) (ProbeResult, error) {
	cfg.defaults()
	res := ProbeResult{Name: cfg.Name}
	for _, length := range cfg.Lengths {
		if length > cfg.Accounts {
			length = cfg.Accounts
		}
		point, err := runProbePoint(cfg, length)
		if err != nil {
			return ProbeResult{}, err
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

func runProbePoint(cfg ProbeConfig, length int) (ProbePoint, error) {
	tm, err := tbtm.New(cfg.Options...)
	if err != nil {
		return ProbePoint{}, fmt.Errorf("harness: building TM: %w", err)
	}
	b := bank.New(tm, cfg.Accounts, 1000)

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		// churned counts committed background transfers, so a probe
		// can wait until churn has overlapped it.
		churned atomic.Uint64
	)
	for w := 0; w < cfg.Churn; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := tm.NewThread()
			pick := workload.NewPicker(cfg.Accounts, workload.Uniform, cfg.Seed+int64(w)*50021)
			for !stop.Load() {
				runtime.Gosched() // transaction-granularity round-robin
				from, to := pick.NextPair()
				if b.Transfer(th, from, to, 1) == nil {
					churned.Add(1)
				}
			}
		}(w)
	}

	kind := tbtm.Short
	if cfg.Long {
		kind = tbtm.Long
	}
	th := tm.NewThread()
	private := tbtm.NewVar(tm, int64(0))
	var rec metrics.Recorder
	for i := 0; i < cfg.Attempts; i++ {
		runtime.Gosched()
		start := time.Now()
		tx := th.Begin(kind)
		began := churned.Load()
		err := func() error {
			var sum int64
			for k := 0; k < length; k++ {
				if k > 0 && k%50 == 0 {
					// Simulate physical concurrency: yield.
					// A Short probe keeps yielding until at least one churn
					// commit has landed since Begin, so it never runs
					// unopposed even when the scheduler starves churn. A
					// Long one does not wait: under Z-STM churn that
					// crosses its zone waits for it to finish.
					runtime.Gosched()
					for !cfg.Long && churned.Load() == began {
						runtime.Gosched()
					}
				}
				v, err := b.Account(k).Read(tx)
				if err != nil {
					return err
				}
				sum += v
			}
			if err := private.Write(tx, sum); err != nil {
				return err
			}
			return tx.Commit()
		}()
		if err != nil {
			tx.Abort()
		}
		rec.Record(time.Since(start), err)
	}
	stop.Store(true)
	wg.Wait()

	var all metrics.Histogram
	all.Merge(&rec.Success)
	all.Merge(&rec.Failure)
	return ProbePoint{
		Length:      length,
		Probability: rec.CommitProbability(),
		Attempts:    rec.Attempts(),
		Breakdown:   rec.Breakdown(),
		Latency:     all.Mean(),
	}, nil
}

// FormatProbeTable renders probe series as an aligned table: one row per
// transaction length, one column per series, cells showing the
// first-attempt commit probability.
func FormatProbeTable(title string, series []ProbeResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-8s", "Length")
	for _, s := range series {
		fmt.Fprintf(&sb, " %20s", s.Name)
	}
	sb.WriteByte('\n')
	if len(series) == 0 {
		return sb.String()
	}
	for i, p := range series[0].Points {
		fmt.Fprintf(&sb, "%-8d", p.Length)
		for _, s := range series {
			if i >= len(s.Points) {
				fmt.Fprintf(&sb, " %20s", "-")
				continue
			}
			fmt.Fprintf(&sb, " %20.3f", s.Points[i].Probability)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
