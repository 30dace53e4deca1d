package falcon

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6 and Appendix B). Each benchmark regenerates its experiment with a
// bench-sized measurement window and reports one headline metric from the
// result table via b.ReportMetric, so `go test -bench=BenchmarkFig13`
// reproduces an individual result and `go test -bench=. -benchmem` sweeps
// the full evaluation. cmd/falconbench prints the complete tables.

import (
	"strconv"
	"testing"
	"time"

	"falcon/internal/experiments"
)

// cell parses table cell (row, col) as a float.
func cell(b *testing.B, t *experiments.Table, row, col int) float64 {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		b.Fatalf("table %q has no cell (%d,%d)", t.Title, row, col)
	}
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

// report emits a named headline metric from the table.
func report(b *testing.B, t *experiments.Table, name string, row, col int) {
	b.ReportMetric(cell(b, t, row, col), name)
}

const benchWindow = 3 * time.Millisecond

func BenchmarkFig01SwHwLimits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig1(2 * time.Millisecond)
		report(b, t, "falcon_mops_at_120", 6, 2)
		report(b, t, "sw_mops_at_120", 6, 4)
	}
}

func BenchmarkFig03MultipathML(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig3(2 * time.Millisecond)
		report(b, t, "multipath_gbps", 0, 3)
		report(b, t, "single_gbps", 2, 3)
	}
}

func BenchmarkFig10LossGoodput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig10(benchWindow)
		// Write rows are 0..4; row 4 is 2% drop.
		report(b, t, "falcon_write_gbps_2pct", 4, 2)
		report(b, t, "roce_gbn_write_gbps_2pct", 4, 4)
	}
}

func BenchmarkFig11aReordering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig11a(benchWindow)
		report(b, t, "falcon_gbps_worst", len(t.Rows)-1, 1)
		report(b, t, "roce_gbn_gbps_worst", len(t.Rows)-1, 3)
	}
}

func BenchmarkFig11bRackTlp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig11b(4 * time.Millisecond)
		report(b, t, "racktlp_gbps_2pct", 3, 1)
		report(b, t, "ooodist_gbps_2pct", 3, 2)
	}
}

func BenchmarkFig12RoceModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig12(benchWindow)
		report(b, t, "gbn_gbps_2pct", 4, 1)
		report(b, t, "sr_gbps_2pct", 4, 2)
		report(b, t, "ar_gbps_2pct", 4, 3)
	}
}

func BenchmarkFig13Incast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig13(4 * time.Millisecond)
		// Row 1: 4 QPs/host — enough whole-op completions even in the
		// bench-sized window.
		report(b, t, "falcon_p99_over_ideal_4qp", 1, 4)
		report(b, t, "falcon_goodput_gbps_100qp", 3, 5)
		report(b, t, "roce_goodput_gbps_100qp", 7, 5)
	}
}

func BenchmarkFig14HostCongestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig14(2 * time.Millisecond)
		report(b, t, "falcon_degraded_gbps", 1, 2)
		report(b, t, "roce_degraded_gbps", 4, 2)
	}
}

func BenchmarkFig15MultipathLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig15(2 * time.Millisecond)
		report(b, t, "multi_gbps_90load", len(t.Rows)-1, 3)
		report(b, t, "single_gbps_90load", len(t.Rows)-1, 6)
	}
}

func BenchmarkFig17SchedulingPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig17(2 * time.Millisecond)
	}
}

func BenchmarkFig18MLTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig18()
		report(b, t, "speedup_64mb", len(t.Rows)-1, 3)
	}
}

func BenchmarkFig19MessageScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig19()
		report(b, t, "p50_over_ideal_1mb", len(t.Rows)-1, 4)
	}
}

func BenchmarkFig20aBwScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig20a(2 * time.Millisecond)
	}
}

func BenchmarkFig20bOpRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig20b(2 * time.Millisecond)
		report(b, t, "mops_1qp", 0, 1)
		report(b, t, "mops_12qp", 4, 1)
	}
}

func BenchmarkFig21ConnectionCliff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig21()
		report(b, t, "falcon_rtt_ratio_1m_conns", len(t.Rows)-1, 3)
		report(b, t, "cx7_rtt_ratio_1m_conns", len(t.Rows)-1, 4)
	}
}

func BenchmarkFig22aFaeScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig22a()
		report(b, t, "prefetch_mevents_128k", 3, 3)
		report(b, t, "stateful_mevents_128k", 3, 2)
	}
}

func BenchmarkFig22bSlowFae(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig22b(2 * time.Millisecond)
		report(b, t, "rtt_ratio_128us_delay", len(t.Rows)-1, 3)
	}
}

func BenchmarkFig23FaeState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig23()
		report(b, t, "prefetch_mevents_512B", len(t.Rows)-1, 1)
	}
}

func BenchmarkFig24Isolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig24(2 * time.Millisecond)
		report(b, t, "slowdown_none_100flows", 1, 1)
		report(b, t, "slowdown_dynamic_100flows", 1, 3)
	}
}

func BenchmarkFig25MpiAllReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig25()
		report(b, t, "speedup_64kb", 4, 3)
	}
}

func BenchmarkFig26MpiAllToAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig26()
		report(b, t, "speedup_4b", 0, 3)
	}
}

func BenchmarkFig27Gromacs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig27()
		report(b, t, "speedup_32nodes", len(t.Rows)-1, 3)
	}
}

func BenchmarkFig28Wrf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig28()
		report(b, t, "speedup_32nodes", len(t.Rows)-1, 3)
	}
}

func BenchmarkFig29LiveMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig29()
		report(b, t, "falcon_guest_pages_per_s", 0, 3)
		report(b, t, "pony_guest_pages_per_s", 1, 3)
	}
}

func BenchmarkFig30MpiAllGather(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig30()
		report(b, t, "speedup_4b", 0, 3)
	}
}

func BenchmarkFig31MpiPingPong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig31()
		report(b, t, "speedup_4b", 0, 3)
	}
}

func BenchmarkTable4Nlf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table4(8 * time.Millisecond)
		report(b, t, "read_bw_pct_of_local", 0, 3)
		report(b, t, "write_bw_pct_of_local", 1, 3)
	}
}
