package lake

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// repoRoot walks up from the package directory to the module root, so
// the tests can reach the committed BENCH artifacts regardless of
// where `go test` runs.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// benchPairs are the committed before/after bench record pairs that
// `make check` diffs, BENCH_<pair>_{before,after}.jsonl.
var benchPairs = []string{"pr17", "pr17_extra", "pr18", "pr26", "pr27", "pr28", "pr29", "pr30", "pr31"}

// committedArtifacts lists every artifact `make check` reads — the
// watched metrics snapshots, the listed reports and series, and both
// sides of each bench pair — each with the run it lands in.
func committedArtifacts() [][2]string {
	out := [][2]string{
		{"pr2", "BENCH_pr2.json"},
		{"pr3", "BENCH_pr3_metrics.json"},
		{"pr3", "BENCH_pr3_series"},
		{"pr5", "BENCH_pr5.json"},
		{"pr6", "BENCH_pr6.json"},
		{"pr8", "BENCH_pr8_metrics.json"},
		{"pr9", "BENCH_pr9_metrics.json"},
		{"pr10", "BENCH_pr10.json"},
		{"pr10_single", "BENCH_pr10_single.json"},
		// Listed, not diffed: Xon-driven admission moved their events on
		// purpose.
		{"pr32_before", "BENCH_pr32_before.jsonl"},
		{"pr32_after", "BENCH_pr32_after.jsonl"},
	}
	for _, p := range benchPairs {
		for _, side := range []string{"before", "after"} {
			out = append(out, [2]string{p + "_" + side, "BENCH_" + p + "_" + side + ".jsonl"})
		}
	}
	return out
}

// ingestCommitted builds an index over the committed artifacts, in the
// given order.
func ingestCommitted(t *testing.T, arts [][2]string) *Index {
	t.Helper()
	root := repoRoot(t)
	ix := &Index{}
	for _, a := range arts {
		if err := ix.IngestFile(a[0], filepath.Join(root, a[1])); err != nil {
			t.Fatalf("ingest %s: %v", a[1], err)
		}
	}
	return ix
}

// TestLakeIngestDeterminism is the golden determinism property: two
// independent ingests of the same artifacts, in opposite orders, build
// identical indexes.
func TestLakeIngestDeterminism(t *testing.T) {
	arts := committedArtifacts()
	a := ingestCommitted(t, arts)
	slices.Reverse(arts)
	b := ingestCommitted(t, arts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two ingests of the same artifacts differ")
	}
	if n := len(a.Runs()); n != 11+2*len(benchPairs)-1 {
		t.Fatalf("%d runs, want one per artifact with pr3's two merged", n)
	}
}

// TestLakeSelfDiffEmpty asserts the committed corpus self-diffs clean:
// diffing any run against itself reports zero findings.
func TestLakeSelfDiffEmpty(t *testing.T) {
	ix := ingestCommitted(t, committedArtifacts())
	for _, r := range ix.Runs() {
		rep := mustDiff(t, ix, r.Name, r.Name)
		if !rep.Empty() {
			var buf bytes.Buffer
			rep.WriteText(&buf)
			t.Fatalf("self-diff of %s not empty:\n%s", r.Name, buf.String())
		}
		if rep.CellsCompared == 0 {
			t.Fatalf("self-diff of %s compared no cells", r.Name)
		}
	}
}

// TestLakeCommittedValues spot-checks that ingested cells carry the
// exact values written in the artifacts.
func TestLakeCommittedValues(t *testing.T) {
	ix := ingestCommitted(t, committedArtifacts())
	for _, c := range []struct {
		run, path string
		want      float64
	}{
		{"pr3", "fig10/ReadReq/drop0.0/port/down_drops", -1}, // wrong path: prefixed by fwd
		{"pr3", "fig10/ReadReq/drop0.0/fwd/port/tx_bytes", 4436608},
		{"pr3", "fig10/ReadReq/drop0.0/pdl/acks_immediate", 17289},
		{"pr28_after", "fabric_scale/seed281/bench/attempted", 261554},
		{"pr28_after", "fabric_scale/seed281/bench/correct", 1},
		{"pr28_after", "fabric_scale/seed281/bench/events_per_op", 84.05452500655669},
	} {
		v, ok := ix.Lookup(c.run, c.path)
		if c.want < 0 {
			if ok {
				t.Errorf("Lookup(%s, %s) unexpectedly found %v", c.run, c.path, v)
			}
			continue
		}
		if !ok || v != c.want {
			t.Errorf("Lookup(%s, %s) = %v, %v; want %v", c.run, c.path, v, ok, c.want)
		}
	}

	// The series CSVs are ingested with full fidelity: row counts and
	// first rows match the files.
	s := ix.FindSeries("pr3", "fig10_write_drop1")
	if s == nil {
		t.Fatal("series fig10_write_drop1 missing")
	}
	if len(s.Times) == 0 || s.Times[0] != 0 {
		t.Fatalf("series shape wrong: %d rows, t0=%v", len(s.Times), s.Times)
	}
	if got := s.column("conn/fcwnd"); got == nil || got[0] != 16 {
		t.Fatalf("conn/fcwnd column wrong: %v", got)
	}
}

// TestLakeBuilderErrors covers ingest-time validation: duplicate
// metrics, duplicate series, unknown schemas.
func TestLakeBuilderErrors(t *testing.T) {
	root := repoRoot(t)
	ix := &Index{}
	path := filepath.Join(root, "BENCH_pr3_metrics.json")
	if err := ix.IngestFile("r", path); err != nil {
		t.Fatal(err)
	}
	if err := ix.IngestFile("r", path); err == nil {
		t.Fatal("re-ingesting the same metrics into one run should fail (duplicate cells)")
	}
	csv := filepath.Join(root, "BENCH_pr3_series", "fig10_write_drop1.csv")
	ix2 := &Index{}
	if err := ix2.IngestFile("r", csv); err != nil {
		t.Fatal(err)
	}
	if err := ix2.IngestFile("r", csv); err == nil {
		t.Fatal("re-ingesting the same series should fail")
	}
	if err := (&Index{}).IngestMetricsJSON("r", strings.NewReader(`{"schema":"bogus/v9"}`), "x"); err == nil {
		t.Fatal("unknown schema should fail")
	}
}

// scaleMetric returns the bench record line with one end-to-end metric
// multiplied by f.
func scaleMetric(t *testing.T, line []byte, metric string, f float64) []byte {
	t.Helper()
	var rec map[string]any
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	m := rec["result"].(map[string]any)["metrics"].(map[string]any)[metric].(map[string]any)
	m["value"] = m["value"].(float64) * f
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLakeBenchPairs diffs each committed bench pair seed by seed, then
// checks the differ's verdict on a copy with one record altered: an
// exact metric moved by any amount is one value-drift, and a perf
// metric moved by a relative error of 0.30 (beyond the 0.25 band) is a
// perf-regress only in its worse direction.
func TestLakeBenchPairs(t *testing.T) {
	root := repoRoot(t)
	for _, p := range benchPairs {
		ix := &Index{}
		for _, side := range []string{"before", "after"} {
			if err := ix.IngestFile(side, filepath.Join(root, "BENCH_"+p+"_"+side+".jsonl")); err != nil {
				t.Fatal(err)
			}
		}
		rep := mustDiff(t, ix, "before", "after")
		if !rep.Empty() {
			var buf bytes.Buffer
			rep.WriteText(&buf)
			t.Errorf("%s:\n%s", p, buf.String())
		}
		if n := len(ix.runs["before"].Cells); rep.CellsCompared != n || n == 0 {
			t.Errorf("%s: compared %d of %d cells", p, rep.CellsCompared, n)
		}
	}

	data, err := os.ReadFile(filepath.Join(root, "BENCH_pr28_before.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	for _, c := range []struct {
		metric string
		f      float64
		want   []string
	}{
		{"events_per_op", 1 + 1e-12, []string{FindingDrift}},
		{"host_ns_per_op", 1 / 0.7, []string{FindingPerf}},
		{"host_ns_per_op", 0.7, nil},
	} {
		altered := slices.Clone(lines)
		altered[0] = scaleMetric(t, lines[0], c.metric, c.f)
		ix := &Index{}
		if err := ix.IngestBenchRecords("before", bytes.NewReader(data), "before.jsonl"); err != nil {
			t.Fatal(err)
		}
		if err := ix.IngestBenchRecords("after", bytes.NewReader(bytes.Join(altered, []byte("\n"))), "after.jsonl"); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range mustDiff(t, ix, "before", "after").Findings {
			if f.Path != "fabric_scale/seed281/bench/"+c.metric {
				t.Errorf("%s x%v: finding on %s", c.metric, c.f, f.Path)
			}
			got = append(got, f.Kind)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s x%v: findings %v, want %v", c.metric, c.f, got, c.want)
		}
	}
}

// TestLakeBenchRecordRejects covers the record shapes the bench reader
// refuses, each with an error naming the offending line: a second
// record for one (workload, seed), a figScale round record, and a
// traced record.
func TestLakeBenchRecordRejects(t *testing.T) {
	root := repoRoot(t)
	data, err := os.ReadFile(filepath.Join(root, "BENCH_pr28_before.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	first := data[:bytes.IndexByte(data, '\n')+1]
	traced := bytes.Replace(first, []byte(`"trace":0`), []byte(`"trace":1`), 1)
	for _, c := range []struct {
		name string
		in   []byte
		want string
	}{
		{"duplicate", append(slices.Clone(first), first...), "x.jsonl:2: second record for fabric_scale seed 281"},
		{"traced", traced, "x.jsonl:1: traced record"},
	} {
		err := (&Index{}).IngestBenchRecords("r", bytes.NewReader(c.in), "x.jsonl")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	err = (&Index{}).IngestFile("r", filepath.Join(root, "BENCH_pr28_figscale.jsonl"))
	if err == nil || !strings.Contains(err.Error(), "BENCH_pr28_figscale.jsonl:1: not a bench record") {
		t.Errorf("figscale records: error %v", err)
	}
}

func TestDeriveRunName(t *testing.T) {
	cases := map[string]string{
		"BENCH_pr3_metrics.json":  "pr3",
		"BENCH_pr3_series":        "pr3",
		"BENCH_pr3_series/":       "pr3",
		"BENCH_pr6.json":          "pr6",
		"/x/y/BENCH_pr5.json":     "pr5",
		"BENCH_pr28_before.jsonl": "pr28_before",
		"mylake.json":             "mylake",
		"fig10_write_drop1.csv":   "fig10_write_drop1",
	}
	for in, want := range cases {
		if got := DeriveRunName(in); got != want {
			t.Errorf("DeriveRunName(%q) = %q, want %q", in, got, want)
		}
	}
}
