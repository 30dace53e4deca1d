package lake

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// seqIndex builds n runs ("r1".."rN") from per-run metric maps.
func seqIndex(t *testing.T, runs []map[string]float64) *Index {
	t.Helper()
	ix := &Index{}
	for i, m := range runs {
		ingestMetrics(t, ix, fmt.Sprintf("r%d", i+1), m)
	}
	return ix
}

func mustTrend(t *testing.T, ix *Index, runs []string) *TrendReport {
	t.Helper()
	rep, err := Trend(ix, runs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestTrendCatchesSlowCreep is the motivating case: a timing metric
// drifting +3% per run for four runs. Every pairwise diff stays inside
// the 5% band — Diff finds nothing between any adjacent pair — yet the
// cumulative drift is ~9% and the trend scan must flag it.
func TestTrendCatchesSlowCreep(t *testing.T) {
	mk := func(srtt float64) map[string]float64 {
		return map[string]float64{"f/conn/pdl/srtt_ns": srtt, "f/conn/pdl/data_sent": 100}
	}
	ix := seqIndex(t, []map[string]float64{mk(1000), mk(1030), mk(1061), mk(1093)})
	runs := []string{"r1", "r2", "r3", "r4"}

	for i := 1; i < len(runs); i++ {
		pair := mustDiff(t, ix, runs[i-1], runs[i])
		if !pair.Empty() {
			t.Fatalf("pairwise diff %s->%s should be inside tolerance, got %+v", runs[i-1], runs[i], pair.Findings)
		}
	}

	rep := mustTrend(t, ix, runs)
	if len(rep.Findings) != 1 {
		t.Fatalf("want exactly the srtt drift flagged, got %+v", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Path != "f/conn/pdl/srtt_ns" || f.Direction != "up" || f.Class != "timing" {
		t.Fatalf("bad finding: %+v", f)
	}
	if f.MaxStepRelErr > 0.05 {
		t.Fatalf("max step %v should be under the pairwise band — that's the point", f.MaxStepRelErr)
	}
	if f.RelErr < 0.05 {
		t.Fatalf("cumulative drift %v should exceed the band", f.RelErr)
	}
}

// TestTrendPerfDirectional checks perf-class chains: a monotonic
// events/sec decline beyond the cumulative tolerance is flagged, while
// the same-shaped improvement is not (perf trends are one-sided, like
// perf diffs).
func TestTrendPerfDirectional(t *testing.T) {
	mk := func(eps, ns float64) map[string]float64 {
		return map[string]float64{"w/seed1/bench/events_per_sec": eps, "w/seed1/bench/host_ns_per_op": ns}
	}
	// events_per_sec decays 8%/run,
	// host_ns_per_op improves monotonically.
	ix := seqIndex(t, []map[string]float64{mk(1000, 90), mk(920, 80), mk(846, 70), mk(779, 60)})
	rep := mustTrend(t, ix, []string{"r1", "r2", "r3", "r4"})
	if len(rep.Findings) != 1 {
		t.Fatalf("want only the throughput decay flagged, got %+v", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Path != "w/seed1/bench/events_per_sec" || f.Direction != "down" || f.Class != "perf" {
		t.Fatalf("bad finding: %+v", f)
	}
}

// TestTrendIgnoresNonMonotone: a metric that wobbles (up then down)
// is not a trend even when first-to-last drift is large; and exact
// metrics never produce trend findings (the pairwise differ owns them).
func TestTrendIgnoresNonMonotone(t *testing.T) {
	ix := seqIndex(t, []map[string]float64{
		{"f/conn/pdl/srtt_ns": 1000, "f/conn/pdl/data_sent": 100},
		{"f/conn/pdl/srtt_ns": 1500, "f/conn/pdl/data_sent": 150},
		{"f/conn/pdl/srtt_ns": 1400, "f/conn/pdl/data_sent": 200},
	})
	rep := mustTrend(t, ix, []string{"r1", "r2", "r3"})
	if !rep.Empty() {
		t.Fatalf("wobble and exact drift must not be trends, got %+v", rep.Findings)
	}
}

// TestTrendSkipsIncompleteChains: cells absent from any run in the
// sequence are skipped (missing cells are Diff findings).
func TestTrendSkipsIncompleteChains(t *testing.T) {
	ix := seqIndex(t, []map[string]float64{
		{"f/conn/pdl/srtt_ns": 1000},
		{"f/conn/pdl/srtt_ns": 1100, "f/conn/tl/alpha": 0.5},
		{"f/conn/pdl/srtt_ns": 1210, "f/conn/tl/alpha": 0.6},
	})
	rep := mustTrend(t, ix, []string{"r1", "r2", "r3"})
	if rep.CellsCompared != 1 {
		t.Fatalf("only the complete srtt chain should be compared, got %d", rep.CellsCompared)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Path != "f/conn/pdl/srtt_ns" {
		t.Fatalf("want the complete chain flagged, got %+v", rep.Findings)
	}
}

// TestTrendErrors: fewer than three runs and unknown runs are errors.
func TestTrendErrors(t *testing.T) {
	ix := seqIndex(t, []map[string]float64{{"f/pdl/srtt_ns": 1}, {"f/pdl/srtt_ns": 1}, {"f/pdl/srtt_ns": 1}})
	if _, err := Trend(ix, []string{"r1", "r2"}); err == nil {
		t.Fatal("want error for 2 runs")
	}
	if _, err := Trend(ix, []string{"r1", "r2", "nope"}); err == nil {
		t.Fatal("want error for unknown run")
	}
}

// TestTrendReportDeterminism: same index, same runs, byte-identical
// text and JSON reports.
func TestTrendReportDeterminism(t *testing.T) {
	mk := func(v float64) map[string]float64 {
		return map[string]float64{"f/conn/pdl/srtt_ns": v, "f/conn/fae/rtt_ns": v * 2}
	}
	ix := seqIndex(t, []map[string]float64{mk(1000), mk(1040), mk(1082), mk(1125)})
	runs := []string{"r1", "r2", "r3", "r4"}
	var a, b bytes.Buffer
	if err := mustTrend(t, ix, runs).WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := mustTrend(t, ix, runs).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("text reports differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "2 monotonic drifts") {
		t.Fatalf("unexpected report:\n%s", a.String())
	}
}
