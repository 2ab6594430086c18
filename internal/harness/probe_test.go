package harness

import (
	"strings"
	"testing"

	"tbtm"
)

func TestProbeCommitProbabilityDeclinesWithLength(t *testing.T) {
	// The paper's motivating claim: under a linearizable TBTM with
	// background churn, the first-attempt commit probability of an
	// update transaction falls as its read set grows.
	res, err := RunProbe(ProbeConfig{
		Name:     "LSA",
		Options:  []tbtm.Option{tbtm.WithConsistency(tbtm.Linearizable), tbtm.WithVersions(64)},
		Lengths:  []int{2, 1000},
		Attempts: 150,
		Churn:    2,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	short, long := res.Points[0], res.Points[1]
	t.Logf("first-attempt commit probability: short %.3f, long %.3f", short.Probability, long.Probability)
	if short.Attempts != 150 || long.Attempts != 150 {
		t.Fatalf("attempts: %d, %d; want 150 each", short.Attempts, long.Attempts)
	}
	if short.Probability < 0.5 {
		t.Fatalf("short-tx commit probability = %.3f, want >= 0.5", short.Probability)
	}
	if long.Probability >= short.Probability {
		t.Fatalf("commit probability did not decline with length: short %.3f, long %.3f",
			short.Probability, long.Probability)
	}
}

func TestProbeZSTMLongSustains(t *testing.T) {
	// Under Z-STM the same 1,000-object update transaction, classified
	// Long, commits with high probability: zones order it instead of
	// validating it.
	res, err := RunProbe(ProbeConfig{
		Name:     "Z-STM(long)",
		Options:  []tbtm.Option{tbtm.WithConsistency(tbtm.ZLinearizable), tbtm.WithVersions(64)},
		Long:     true,
		Lengths:  []int{1000},
		Attempts: 100,
		Churn:    2,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Points[0].Probability; p < 0.9 {
		t.Fatalf("Z-STM long commit probability = %.3f, want >= 0.9", p)
	}
}

func TestProbeDefaultsAndTable(t *testing.T) {
	res, err := RunProbe(ProbeConfig{
		Name:     "quick",
		Options:  []tbtm.Option{tbtm.WithConsistency(tbtm.Linearizable)},
		Lengths:  []int{2},
		Attempts: 10,
		Churn:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := FormatProbeTable("A7: first-attempt commit probability", []ProbeResult{res})
	if !strings.Contains(table, "quick") || !strings.Contains(table, "Length") {
		t.Fatalf("table malformed:\n%s", table)
	}
	if res.Points[0].Latency <= 0 {
		t.Fatalf("latency = %v, want > 0", res.Points[0].Latency)
	}
}

func TestLatencyHistogramsPopulated(t *testing.T) {
	r, err := RunBank(BankConfig{
		Name:    "lat",
		Options: []tbtm.Option{tbtm.WithConsistency(tbtm.ZLinearizable)},
		Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.TransferLat == nil || r.TransferLat.Count() == 0 {
		t.Fatal("transfer latency histogram empty")
	}
	if r.TransferLat.Count() != r.Transfers {
		t.Fatalf("latency count %d != committed transfers %d", r.TransferLat.Count(), r.Transfers)
	}
	table := FormatLatencyTable("latency", MetricTransfers, []Series{{Name: "lat", Results: []BankResult{r}}})
	if !strings.Contains(table, "p95") {
		t.Fatalf("latency table malformed:\n%s", table)
	}
}
