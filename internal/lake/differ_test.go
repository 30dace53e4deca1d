package lake

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// ingestMetrics ingests m into the run as a one-figure falconmetrics/v1
// snapshot. Map order is fine: ingest sorts the cells.
func ingestMetrics(t *testing.T, ix *Index, run string, m map[string]float64) {
	t.Helper()
	var metrics []string
	for k, v := range m {
		metrics = append(metrics, fmt.Sprintf(`{"name":"%s","value":%v}`, k, v))
	}
	js := `{"schema":"falconmetrics/v1","figures":[{"name":"f","metrics":{"at_ns":0,"metrics":[` +
		strings.Join(metrics, ",") + `]}}]}`
	if err := ix.IngestMetricsJSON(run, strings.NewReader(js), run+".json"); err != nil {
		t.Fatal(err)
	}
}

// twoRunIndex builds runs "base" and "next" from the given metric and
// series payloads.
func twoRunIndex(t *testing.T, metricsA, metricsB map[string]float64, seriesA, seriesB string) *Index {
	t.Helper()
	ix := &Index{}
	ingestMetrics(t, ix, "base", metricsA)
	ingestMetrics(t, ix, "next", metricsB)
	if seriesA != "" {
		if err := ix.IngestSeriesCSV("base", "s", strings.NewReader(seriesA), "a.csv"); err != nil {
			t.Fatal(err)
		}
	}
	if seriesB != "" {
		if err := ix.IngestSeriesCSV("next", "s", strings.NewReader(seriesB), "b.csv"); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func mustDiff(t *testing.T, ix *Index, a, b string) *Report {
	t.Helper()
	rep, err := Diff(ix, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func findingKinds(rep *Report) map[string]string {
	out := make(map[string]string)
	for _, f := range rep.Findings {
		out[f.Path] = f.Kind
	}
	return out
}

// TestDiffClasses exercises the three determinism classes: exact
// metrics flag any drift, timing metrics flag only beyond the
// tolerance band, perf metrics flag only a set that regressed: one
// finding per (workload, metric), none for a set mostly better.
func TestDiffClasses(t *testing.T) {
	ix := twoRunIndex(t,
		map[string]float64{
			"fig/a/pdl/data_sent":          100,   // exact, drifts by 1
			"fig/a/pdl/acks_sent":          50,    // exact, unchanged
			"fig/a/pdl/srtt_ns":            10000, // timing, +2% (inside 5%)
			"fig/a/pdl/rtt2_ns":            10000, // timing, +10% (outside 5%)
			"w/seed1/bench/host_ns_per_op": 100,   // perf, +10%
			"w/seed2/bench/host_ns_per_op": 100,   // perf, +50%: the set regressed
			"w/seed3/bench/events_per_sec": 1000,  // perf, -50% (lower is worse)
			"w/seed4/bench/events_per_sec": 1000,  // perf, +50%: half the set is better
		},
		map[string]float64{
			"fig/a/pdl/data_sent":          101,
			"fig/a/pdl/acks_sent":          50,
			"fig/a/pdl/srtt_ns":            10200,
			"fig/a/pdl/rtt2_ns":            11000,
			"w/seed1/bench/host_ns_per_op": 110,
			"w/seed2/bench/host_ns_per_op": 150,
			"w/seed3/bench/events_per_sec": 500,
			"w/seed4/bench/events_per_sec": 1500,
		},
		"", "")
	rep := mustDiff(t, ix, "base", "next")
	kinds := findingKinds(rep)
	want := map[string]string{
		"fig/a/pdl/data_sent":    FindingDrift,
		"fig/a/pdl/rtt2_ns":      FindingDrift,
		"w/bench/host_ns_per_op": FindingPerf,
	}
	for path, kind := range want {
		if kinds[path] != kind {
			t.Errorf("%s: got kind %q, want %q", path, kinds[path], kind)
		}
	}
	for _, absent := range []string{
		"fig/a/pdl/acks_sent", "fig/a/pdl/srtt_ns", "w/bench/events_per_sec",
	} {
		if k, flagged := kinds[absent]; flagged {
			t.Errorf("%s: unexpectedly flagged as %q", absent, k)
		}
	}
	if len(rep.Findings) != len(want) {
		t.Errorf("findings = %d, want %d: %+v", len(rep.Findings), len(want), kinds)
	}
	if rep.CellsCompared != 8 {
		t.Errorf("CellsCompared = %d, want 8", rep.CellsCompared)
	}
}

// TestDiffMissingExtra checks set differences in both directions.
func TestDiffMissingExtra(t *testing.T) {
	ix := twoRunIndex(t,
		map[string]float64{"fig/a/pdl/only_in_a": 1, "fig/a/pdl/shared": 2},
		map[string]float64{"fig/a/pdl/only_in_b": 3, "fig/a/pdl/shared": 2},
		"", "")
	rep := mustDiff(t, ix, "base", "next")
	kinds := findingKinds(rep)
	if kinds["fig/a/pdl/only_in_a"] != FindingMissing {
		t.Errorf("only_in_a: %q, want missing", kinds["fig/a/pdl/only_in_a"])
	}
	if kinds["fig/a/pdl/only_in_b"] != FindingExtra {
		t.Errorf("only_in_b: %q, want extra", kinds["fig/a/pdl/only_in_b"])
	}
	if len(rep.Findings) != 2 || rep.CellsCompared != 1 {
		t.Errorf("findings=%d compared=%d", len(rep.Findings), rep.CellsCompared)
	}
}

// TestDiffSeries checks exact series comparison for exact-class
// columns, tolerance for timing-class columns, and shape findings.
func TestDiffSeries(t *testing.T) {
	base := "t_ns,conn/fcwnd,fwd/queue_drops\n0,16,0\n1000,20,2\n2000,24,2\n"
	// fcwnd (timing) +2% at one row: inside band. queue_drops (exact)
	// differs at two rows: flagged with a row count.
	next := "t_ns,conn/fcwnd,fwd/queue_drops\n0,16,1\n1000,20.4,2\n2000,24,3\n"
	ix := twoRunIndex(t, map[string]float64{"fig/x/pdl/v": 1}, map[string]float64{"fig/x/pdl/v": 1}, base, next)
	rep := mustDiff(t, ix, "base", "next")
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %+v, want exactly the queue_drops drift", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Kind != FindingSeries || f.Path != "series:s/fwd/queue_drops" {
		t.Fatalf("finding = %+v", f)
	}
	if !strings.Contains(f.Detail, "2/3 rows differ") || !strings.Contains(f.Detail, "t_ns=0") {
		t.Fatalf("detail = %q", f.Detail)
	}
	if rep.SeriesCompared != 1 {
		t.Fatalf("SeriesCompared = %d", rep.SeriesCompared)
	}

	// Shape: different row counts.
	ix2 := twoRunIndex(t, map[string]float64{"fig/x/pdl/v": 1}, map[string]float64{"fig/x/pdl/v": 1},
		base, "t_ns,conn/fcwnd,fwd/queue_drops\n0,16,0\n")
	rep2 := mustDiff(t, ix2, "base", "next")
	if len(rep2.Findings) != 1 || rep2.Findings[0].Kind != FindingShape {
		t.Fatalf("row-count mismatch: %+v", rep2.Findings)
	}

	// Shape: series missing entirely on one side.
	ix3 := twoRunIndex(t, map[string]float64{"fig/x/pdl/v": 1}, map[string]float64{"fig/x/pdl/v": 1}, base, "")
	rep3 := mustDiff(t, ix3, "base", "next")
	if len(rep3.Findings) != 1 || rep3.Findings[0].Kind != FindingShape {
		t.Fatalf("missing series: %+v", rep3.Findings)
	}
}

// TestDiffReportDeterminism renders the same diff twice and expects
// byte-identical text and JSON.
func TestDiffReportDeterminism(t *testing.T) {
	ix := twoRunIndex(t,
		map[string]float64{"fig/a/pdl/x": 1, "fig/a/pdl/y": 2, "fig/a/pdl/z_ns": 100},
		map[string]float64{"fig/a/pdl/x": 2, "fig/a/pdl/y": 2, "fig/a/pdl/z_ns": 300},
		"", "")
	render := func() (string, string) {
		rep := mustDiff(t, ix, "base", "next")
		var txt, js bytes.Buffer
		if err := rep.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return txt.String(), js.String()
	}
	t1, j1 := render()
	t2, j2 := render()
	if t1 != t2 || j1 != j2 {
		t.Fatal("diff report rendering is not deterministic")
	}
	if !strings.Contains(t1, "value-drift") {
		t.Fatalf("text report missing findings:\n%s", t1)
	}
}

// TestDiffUnknownRun checks the error path.
func TestDiffUnknownRun(t *testing.T) {
	ix := twoRunIndex(t, map[string]float64{"fig/a/pdl/x": 1}, map[string]float64{"fig/a/pdl/x": 1}, "", "")
	if _, err := Diff(ix, "base", "nope"); err == nil {
		t.Fatal("diff against unknown run should fail")
	}
	if _, err := Diff(ix, "nope", "base"); err == nil {
		t.Fatal("diff from unknown run should fail")
	}
}
