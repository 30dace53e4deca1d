package lake

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
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

// ingestCommitted builds an index over the committed PR 3/5/6
// artifacts — the same set `make check` gates on.
func ingestCommitted(t *testing.T) *Index {
	t.Helper()
	root := repoRoot(t)
	b := NewBuilder()
	for run, rel := range map[string][]string{
		"pr3": {"BENCH_pr3_metrics.json", "BENCH_pr3_series"},
		"pr5": {"BENCH_pr5.json"},
		"pr6": {"BENCH_pr6.json"},
	} {
		for _, r := range rel {
			if err := b.IngestFile(run, filepath.Join(root, r)); err != nil {
				t.Fatalf("ingest %s: %v", r, err)
			}
		}
	}
	ix, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestLakeIngestDeterminism is the golden determinism property: two
// independent ingests of the same artifacts build identical indexes.
func TestLakeIngestDeterminism(t *testing.T) {
	a, b := ingestCommitted(t), ingestCommitted(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two ingests of the same artifacts differ: %d vs %d cells", a.NumCells(), b.NumCells())
	}
}

// TestLakeSelfDiffEmpty asserts the committed corpus self-diffs clean:
// diffing any run against itself reports zero findings.
func TestLakeSelfDiffEmpty(t *testing.T) {
	ix := ingestCommitted(t)
	for _, run := range []string{"pr3", "pr5", "pr6"} {
		rep, err := Diff(ix, run, run, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Empty() {
			var buf bytes.Buffer
			rep.WriteText(&buf)
			t.Fatalf("self-diff of %s not empty:\n%s", run, buf.String())
		}
		if rep.CellsCompared == 0 {
			t.Fatalf("self-diff of %s compared no cells", run)
		}
	}
}

// TestLakeCommittedValues spot-checks that ingested cells carry the
// exact values written in the artifacts.
func TestLakeCommittedValues(t *testing.T) {
	ix := ingestCommitted(t)
	for _, c := range []struct {
		run, path string
		want      float64
	}{
		{"pr3", "fig10/ReadReq/drop0.0/port/down_drops", -1}, // wrong path: prefixed by fwd
		{"pr3", "fig10/ReadReq/drop0.0/fwd/port/tx_bytes", 4436608},
		{"pr3", "fig10/ReadReq/drop0.0/pdl/acks_immediate", 17289},
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
	sv, ok := ix.FindSeries("pr3", "fig10_write_drop1")
	if !ok {
		t.Fatal("series fig10_write_drop1 missing")
	}
	if sv.Rows() == 0 || sv.Times()[0] != 0 {
		t.Fatalf("series shape wrong: %d rows, t0=%v", sv.Rows(), sv.Times())
	}
	if got := sv.Column("conn/fcwnd"); got == nil || got[0] != 16 {
		t.Fatalf("conn/fcwnd column wrong: %v", got)
	}
}

// TestLakeBuilderErrors covers ingest-time validation: duplicate
// metrics, duplicate series, unknown schemas, empty builders.
func TestLakeBuilderErrors(t *testing.T) {
	root := repoRoot(t)
	b := NewBuilder()
	path := filepath.Join(root, "BENCH_pr3_metrics.json")
	if err := b.IngestFile("r", path); err != nil {
		t.Fatal(err)
	}
	if err := b.IngestFile("r", path); err == nil {
		t.Fatal("re-ingesting the same metrics into one run should fail (duplicate cells)")
	}
	csv := filepath.Join(root, "BENCH_pr3_series", "fig10_write_drop1.csv")
	b2 := NewBuilder()
	if err := b2.IngestFile("r", csv); err != nil {
		t.Fatal(err)
	}
	if err := b2.IngestFile("r", csv); err == nil {
		t.Fatal("re-ingesting the same series should fail")
	}
	if _, err := NewBuilder().Seal(); err == nil {
		t.Fatal("sealing an empty builder should fail")
	}
	if err := NewBuilder().IngestMetricsJSON("r", bytes.NewReader([]byte(`{"schema":"bogus/v9"}`)), "x"); err == nil {
		t.Fatal("unknown schema should fail")
	}
}

func TestDeriveRunName(t *testing.T) {
	cases := map[string]string{
		"BENCH_pr3_metrics.json": "pr3",
		"BENCH_pr3_series":       "pr3",
		"BENCH_pr3_series/":      "pr3",
		"BENCH_pr6.json":         "pr6",
		"/x/y/BENCH_pr5.json":    "pr5",
		"mylake.json":            "mylake",
		"fig10_write_drop1.csv":  "fig10_write_drop1",
	}
	for in, want := range cases {
		if got := DeriveRunName(in); got != want {
			t.Errorf("DeriveRunName(%q) = %q, want %q", in, got, want)
		}
	}
}
