package lake

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
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

// makeVar returns the words of one Makefile variable, read from the
// Makefile so that the tests and `make check` cannot part.
func makeVar(t *testing.T, name string) []string {
	t.Helper()
	mk, err := os.ReadFile(filepath.Join(repoRoot(t), "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(mk), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" ="); ok {
			return strings.Fields(rest)
		}
	}
	t.Fatalf("Makefile has no %s line", name)
	return nil
}

// lakePairs returns the before/after paths of every committed pair the
// gate must find clean: BENCH_<pair>_{before,after}.jsonl for each pair
// in LAKE_PAIRS.
func lakePairs(t *testing.T) [][2]string {
	t.Helper()
	var pairs [][2]string
	for _, p := range makeVar(t, "LAKE_PAIRS") {
		base := filepath.Join(repoRoot(t), "BENCH_"+p)
		pairs = append(pairs, [2]string{base + "_before.jsonl", base + "_after.jsonl"})
	}
	return pairs
}

// calibrationSets returns the before/after paths of each A/A set the set
// gate was chosen from (testdata/calibration/set<N>_{before,after}.jsonl).
func calibrationSets(t *testing.T) [][2]string {
	t.Helper()
	sets, err := filepath.Glob(filepath.Join("testdata", "calibration", "*_before.jsonl"))
	if err != nil || len(sets) < 15 {
		t.Fatalf("%d calibration sets (%v), want at least 15", len(sets), err)
	}
	var pairs [][2]string
	for _, before := range sets {
		pairs = append(pairs, [2]string{before, strings.TrimSuffix(before, "_before.jsonl") + "_after.jsonl"})
	}
	return pairs
}

// committedPairs returns lakePairs and calibrationSets together.
func committedPairs(t *testing.T) [][2]string {
	return append(lakePairs(t), calibrationSets(t)...)
}

func mustRead(t *testing.T, path string) Records {
	t.Helper()
	recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// readBytes reads data as the bench -out file x.jsonl.
func readBytes(t *testing.T, data []byte) (Records, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return Read(path)
}

func cellCount(recs Records) int {
	n := 0
	for _, cells := range recs {
		n += len(cells)
	}
	return n
}

// TestLakeBenchPairs judges each committed bench pair in LAKE_PAIRS and
// expects no finding with every cell compared. The records in
// LAKE_LISTED, a pair whose events moved by design, must still parse.
func TestLakeBenchPairs(t *testing.T) {
	for _, p := range lakePairs(t) {
		before := mustRead(t, p[0])
		rep := Diff(before, mustRead(t, p[1]))
		if len(rep.Findings) > 0 {
			t.Errorf("%s:\n%s", p[1], rep.String())
		}
		if n := cellCount(before); rep.CellsCompared != n || n == 0 {
			t.Errorf("%s: compared %d of %d cells", p[1], rep.CellsCompared, n)
		}
	}
	listed := 0
	for _, a := range makeVar(t, "LAKE_LISTED") {
		if strings.HasSuffix(a, ".jsonl") {
			if recs := mustRead(t, filepath.Join(repoRoot(t), a)); len(recs) == 0 {
				t.Errorf("%s: no records", a)
			}
			listed++
		}
	}
	if listed == 0 {
		t.Error("LAKE_LISTED names no .jsonl file")
	}
}

// TestLakeCalibration judges every A/A set in testdata/calibration (one
// bench binary on both sides): no exact cell may move, every cell is
// compared, and the number of sets the set gate flags must be the one
// EXPERIMENTS.md reports, within the budget of one false alarm per 20
// sets. Each flagged set is logged with its findings.
func TestLakeCalibration(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(repoRoot(t), "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`Under the chosen gate, (\d+) of (\d+) A/A sets trip`).FindSubmatch(doc)
	if m == nil {
		t.Fatal("EXPERIMENTS.md reports no A/A trip count")
	}
	wantTripped, _ := strconv.Atoi(string(m[1]))
	wantSets, _ := strconv.Atoi(string(m[2]))
	sets := calibrationSets(t)
	tripped := 0
	for _, p := range sets {
		before := mustRead(t, p[0])
		rep := Diff(before, mustRead(t, p[1]))
		for _, f := range rep.Findings {
			if f.Kind != FindingPerf {
				t.Errorf("%s: %+v", p[1], f)
			}
		}
		if rep.CellsCompared != cellCount(before) {
			t.Errorf("%s: compared %d of %d cells", p[1], rep.CellsCompared, cellCount(before))
		}
		if len(rep.Findings) > 0 {
			tripped++
			t.Logf("%s trips the set gate:\n%s", p[1], rep)
		}
	}
	if tripped != wantTripped || len(sets) != wantSets || 20*tripped > len(sets) {
		t.Errorf("%d of %d A/A sets trip; EXPERIMENTS.md reports %d of %d, and the budget is one in 20",
			tripped, len(sets), wantTripped, wantSets)
	}
}

// TestLakeIngestDeterminism reads every committed record file as is and
// with its lines reversed: the records, and so every verdict, do not
// depend on line order.
func TestLakeIngestDeterminism(t *testing.T) {
	for _, p := range committedPairs(t) {
		for _, path := range p {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
			slices.Reverse(lines)
			rev, err := readBytes(t, bytes.Join(lines, []byte("\n")))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mustRead(t, path), rev) {
				t.Errorf("%s: reading the lines reversed gives other records", path)
			}
		}
	}
}

// TestLakeSelfDiffEmpty judges every committed record file against
// itself: no finding, every cell compared.
func TestLakeSelfDiffEmpty(t *testing.T) {
	for _, p := range committedPairs(t) {
		for _, path := range p {
			recs := mustRead(t, path)
			rep := Diff(recs, recs)
			if len(rep.Findings) > 0 || rep.CellsCompared != cellCount(recs) {
				t.Errorf("%s against itself:\n%s", path, rep.String())
			}
		}
	}
}

// TestLakeCommittedValues spot-checks that read cells carry the exact
// values written in a committed record file.
func TestLakeCommittedValues(t *testing.T) {
	recs := mustRead(t, filepath.Join(repoRoot(t), "BENCH_pr28_after.jsonl"))
	cells := recs["fabric_scale/seed281/bench"]
	for metric, want := range map[string]float64{
		"attempted":     261554,
		"failed":        0,
		"correct":       1,
		"events_per_op": 84.05452500655669,
	} {
		if v, ok := cells[metric]; !ok || v != want {
			t.Errorf("fabric_scale seed 281 %s = %v, %v; want %v", metric, v, ok, want)
		}
	}
	if len(recs) != 40 {
		t.Errorf("%d records, want 10 seeds x 4 workloads", len(recs))
	}
}

// TestLakeBuilderErrors covers the files the reader refuses before any
// record: a missing file, and the committed artifacts that are not bench
// records (a metrics snapshot, a series CSV), each refused at line 1.
func TestLakeBuilderErrors(t *testing.T) {
	root := repoRoot(t)
	if _, err := Read(filepath.Join(root, "BENCH_none.jsonl")); err == nil {
		t.Error("reading a missing file should fail")
	}
	for _, a := range []string{"BENCH_pr3_metrics.json", "BENCH_pr3_series/fig10_write_drop1.csv"} {
		_, err := Read(filepath.Join(root, a))
		if want := filepath.Base(a) + ":1:"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %q", a, err, want)
		}
	}
}

// TestLakeBenchRecordRejects covers the record shapes the reader
// refuses, each with an error naming the offending line: a second record
// for one (workload, seed), a traced record, a line that is not JSON and
// a figScale round record.
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
		{"malformed", append(slices.Clone(first), "{\"workload\":\n"...), "x.jsonl:2: unexpected end of JSON input"},
	} {
		_, err := readBytes(t, c.in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	_, err = Read(filepath.Join(root, "BENCH_pr28_figscale.jsonl"))
	if err == nil || !strings.Contains(err.Error(), "BENCH_pr28_figscale.jsonl:1: not a bench record") {
		t.Errorf("figscale records: error %v", err)
	}
}

// TestPathClass holds the class of every record field — exact, judged
// or shown — to METRICS.md §7's table, and checks that the table names
// every field a committed record carries.
func TestPathClass(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(repoRoot(t), "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(doc), "## 7. Bench records")
	sec, _, _ = strings.Cut(sec, "\n## ")
	documented := map[string]string{} // field -> "exact", "judged" or "shown"
	for _, line := range strings.Split(sec, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) != 4 || !strings.Contains(cols[1], "`") {
			continue
		}
		for _, f := range strings.Split(cols[1], ",") {
			documented[strings.Trim(strings.TrimSpace(f), "`")] = strings.Fields(cols[2])[0]
		}
	}
	recs := mustRead(t, filepath.Join(repoRoot(t), "BENCH_pr43_after.jsonl"))
	for _, m := range append(unionKeys(recs["oprate_small/seed431/bench"], nil), shown...) {
		class := "exact"
		if perfBands[m] > 0 {
			class = "judged"
		} else if slices.Contains(shown, m) {
			class = "shown"
		}
		if documented[m] != class {
			t.Errorf("%s: %q, METRICS.md §7 says %q", m, class, documented[m])
		}
		delete(documented, m)
	}
	if len(documented) > 0 {
		t.Errorf("METRICS.md §7 documents fields no record carries: %v", documented)
	}
}

// TestDiffClasses holds exact cells to the bit, NaN equal to NaN, and
// judges host metrics per set: one finding per (workload, metric) whose
// seeds regressed, none for a set half better.
func TestDiffClasses(t *testing.T) {
	before := Records{
		"w/seed1/bench": {"events_per_op": 10, "sim_op_p99_us": math.NaN(), "host_ns_per_op": 100, "heap_live_mb": 1000},
		"w/seed2/bench": {"events_per_op": 10, "sim_op_p99_us": 5, "host_ns_per_op": 100, "heap_live_mb": 1000},
	}
	after := Records{
		"w/seed1/bench": {"events_per_op": 10, "sim_op_p99_us": math.NaN(), "host_ns_per_op": 110, "heap_live_mb": 500},
		"w/seed2/bench": {"events_per_op": 11, "sim_op_p99_us": 5, "host_ns_per_op": 150, "heap_live_mb": 1500},
	}
	rep := Diff(before, after)
	want := []Finding{
		{Kind: FindingDrift, Path: "w/seed2/bench/events_per_op", A: 10, B: 11},
		{Kind: FindingPerf, Path: "w/bench/host_ns_per_op", A: 100, B: 130,
			Detail: "median per-seed ratio 1.300, 2/2 seeds worse"},
	}
	if !reflect.DeepEqual(rep.Findings, want) {
		t.Errorf("findings %+v, want %+v", rep.Findings, want)
	}
	if rep.CellsCompared != 8 {
		t.Errorf("CellsCompared = %d, want 8", rep.CellsCompared)
	}
}

// TestDiffMissingExtra checks records and cells on one side only, in
// both directions.
func TestDiffMissingExtra(t *testing.T) {
	before := Records{
		"w/seed1/bench": {"failed": 0, "only_in_a": 1},
		"w/seed2/bench": {"failed": 0},
	}
	after := Records{
		"w/seed1/bench": {"failed": 0, "only_in_b": 1},
		"w/seed3/bench": {"failed": 0},
	}
	rep := Diff(before, after)
	want := []Finding{
		{Kind: FindingMissing, Path: "w/seed1/bench/only_in_a"},
		{Kind: FindingExtra, Path: "w/seed1/bench/only_in_b"},
		{Kind: FindingMissing, Path: "w/seed2/bench"},
		{Kind: FindingExtra, Path: "w/seed3/bench"},
	}
	if !reflect.DeepEqual(rep.Findings, want) || rep.CellsCompared != 1 {
		t.Errorf("findings %+v (%d cells compared), want %+v (1)", rep.Findings, rep.CellsCompared, want)
	}
}

// TestDiffReportDeterminism renders the same judgement twice and expects
// byte-identical text, whatever the map order.
func TestDiffReportDeterminism(t *testing.T) {
	before := Records{}
	after := Records{}
	for _, w := range []string{"a", "b", "c", "d"} {
		for _, s := range []string{"1", "2", "3"} {
			before[w+"/seed"+s+"/bench"] = map[string]float64{"failed": 0, "events_per_op": 1, "host_ns_per_op": 1}
			after[w+"/seed"+s+"/bench"] = map[string]float64{"failed": 1, "events_per_op": 2, "host_ns_per_op": 2}
		}
	}
	first := Diff(before, after).String()
	for i := 0; i < 5; i++ {
		if got := Diff(before, after).String(); got != first {
			t.Fatalf("report rendering is not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	if !strings.Contains(first, "value-drift") || !strings.Contains(first, "perf-regress") {
		t.Fatalf("text report missing findings:\n%s", first)
	}
}

// TestDiffSetGate judges a committed after-file against altered copies
// of itself. A uniform 10 % slowdown (host_ns_per_op ×1.10 with its
// display copy events_per_sec ÷1.10) is one perf-regress per workload,
// on host_ns_per_op; either cell edited alone is refused by Read. One
// seed made 1.5x slower alone, and a uniform speedup, are not flagged.
// An exact cell moved on one seed (events_per_op, failed, correct) is
// one value-drift on that cell (events_per_op with its display copy),
// and a seed dropped from the after-file
// is one missing finding on that seed.
func TestDiffSetGate(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCH_pr36_after.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	before := mustRead(t, filepath.Join(repoRoot(t), "BENCH_pr36_after.jsonl"))
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	perWorkload := func(metrics ...string) []string {
		var out []string
		for _, w := range []string{"fabric_scale", "incast_conns", "lossy_mixed", "oprate_small"} {
			for _, m := range metrics {
				out = append(out, w+"/bench/"+m)
			}
		}
		return out
	}
	scale := func(metric string, f float64) func(map[string]any) {
		return func(res map[string]any) {
			m := res["metrics"].(map[string]any)[metric].(map[string]any)
			m["value"] = m["value"].(float64) * f
		}
	}
	// slower scales host time by f and its display copy by 1/f.
	slower := func(f float64) func(map[string]any) {
		return func(res map[string]any) {
			scale("host_ns_per_op", f)(res)
			scale("events_per_sec", 1/f)(res)
		}
	}
	const seed = "fabric_scale/seed361/bench"
	for _, c := range []struct {
		name  string
		every bool                 // edit every record, else only the first
		edit  func(map[string]any) // edits a record's result; nil drops the record
		kind  string               // of every finding, or Read's error
		want  []string
	}{
		{"uniform 10 % slowdown", true, slower(1.10), FindingPerf, perWorkload("host_ns_per_op")},
		{"uniform 4 % heap growth", true, func(res map[string]any) {
			scale("heap_bytes_per_conn", 1.04)(res)
			scale("heap_live_mb", 1.04)(res)
		}, FindingPerf, perWorkload("heap_bytes_per_conn", "heap_live_mb")},
		{"uniform 6 % slowdown", true, slower(1.06), "", nil},
		{"host_ns_per_op x1.10 alone", true, scale("host_ns_per_op", 1.10), "x.jsonl:1: events_per_sec", nil},
		{"events_per_sec /1.10 alone", false, scale("events_per_sec", 1/1.10), "x.jsonl:1: events_per_sec", nil},
		{"one seed 1.5x slower", false, slower(1.5), "", nil},
		{"uniform 0.7x", true, slower(0.7), "", nil},
		{"events_per_op x(1+1e-12)", false, func(res map[string]any) {
			scale("events_per_op", 1+1e-12)(res)
			scale("events_per_sec", 1+1e-12)(res)
		}, FindingDrift, []string{seed + "/events_per_op"}},
		{"failed +1", false, func(res map[string]any) { res["failed"] = res["failed"].(float64) + 1 }, FindingDrift, []string{seed + "/failed"}},
		{"correct flipped", false, func(res map[string]any) { res["correct"] = !res["correct"].(bool) }, FindingDrift, []string{seed + "/correct"}},
		{"seed missing", false, nil, FindingMissing, []string{seed}},
	} {
		var altered [][]byte
		for i, line := range lines {
			if (c.every || i == 0) && c.edit == nil {
				continue
			}
			if c.every || i == 0 {
				var rec map[string]any
				if err := json.Unmarshal(line, &rec); err != nil {
					t.Fatal(err)
				}
				c.edit(rec["result"].(map[string]any))
				if line, err = json.Marshal(rec); err != nil {
					t.Fatal(err)
				}
			}
			altered = append(altered, line)
		}
		after, err := readBytes(t, bytes.Join(altered, []byte("\n")))
		if strings.HasPrefix(c.kind, "x.jsonl") {
			if err == nil || !strings.Contains(err.Error(), c.kind) {
				t.Errorf("%s: error %v, want %q", c.name, err, c.kind)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range Diff(before, after).Findings {
			if f.Kind != c.kind || (f.Kind == FindingPerf && !strings.Contains(f.Detail, "10/10 seeds worse")) {
				t.Errorf("%s: %+v", c.name, f)
			}
			got = append(got, f.Path)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: findings on %v, want %v", c.name, got, c.want)
		}
	}
}
