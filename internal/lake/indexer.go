package lake

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The ingest half of the lake: each Ingest call parses one artifact and
// merges it into a run, keeping the run's cells and series sorted so
// that ingest order never affects the index — which is what makes
// double-ingest equality a meaningful test.

// metricsFile mirrors the falconmetrics/v1 payload of falconbench
// -metrics (internal/experiments.MetricsReport). The lake parses the
// serialized artifact rather than importing the in-memory type: the
// whole point is consuming accumulated files across runs and PRs.
type metricsFile struct {
	Schema  string `json:"schema"`
	Quick   bool   `json:"quick"`
	Figures []struct {
		Name    string `json:"name"`
		Metrics struct {
			AtNs    int64 `json:"at_ns"`
			Metrics []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"metrics"`
	} `json:"figures"`
}

// benchRecord mirrors one line of a bench -out file (bench/compare.go):
// the result of one run of one workload at one seed.
type benchRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   *struct {
		Correct   bool   `json:"correct"`
		Attempted uint64 `json:"attempted"`
		Failed    uint64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// SchemaMetrics, SchemaSeries and SchemaBenchRecords are the artifact
// schemas the indexer understands. Series CSVs and bench records carry no
// embedded schema tag, so the indexer stamps them on ingest.
const (
	SchemaMetrics      = "falconmetrics/v1"
	SchemaSeries       = "falconseries/v1"
	SchemaBenchRecords = "benchrecords/v1"
)

// run returns the named run, creating it on first ingest.
func (ix *Index) run(name string) *Run {
	if ix.runs == nil {
		ix.runs = make(map[string]*Run)
	}
	r := ix.runs[name]
	if r == nil {
		r = &Run{Name: name}
		ix.runs[name] = r
	}
	return r
}

// add merges one artifact's cells into the run and records its schema
// and source. A path the run already holds is an error: it would
// silently shadow the other cell across artifacts.
func (r *Run) add(schema, source string, cells []Cell) error {
	r.Cells = append(r.Cells, cells...)
	slices.SortFunc(r.Cells, func(a, b Cell) int { return strings.Compare(a.Path, b.Path) })
	for i := 1; i < len(r.Cells); i++ {
		if r.Cells[i].Path == r.Cells[i-1].Path {
			return fmt.Errorf("lake: %s: duplicate metric %q in run %q", source, r.Cells[i].Path, r.Name)
		}
	}
	r.Schemas = addSorted(r.Schemas, schema)
	r.Sources = addSorted(r.Sources, source)
	return nil
}

// addSorted inserts v into the sorted set s.
func addSorted(s []string, v string) []string {
	if i, found := slices.BinarySearch(s, v); !found {
		s = slices.Insert(s, i, v)
	}
	return s
}

// IngestMetricsJSON ingests one falconmetrics/v1 snapshot payload into
// the named run. Every figure metric becomes one cell keyed by its
// full metric path.
func (ix *Index) IngestMetricsJSON(run string, r io.Reader, source string) error {
	var mf metricsFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return fmt.Errorf("lake: %s: %w", source, err)
	}
	if mf.Schema != SchemaMetrics {
		return fmt.Errorf("lake: %s: schema %q, want %q", source, mf.Schema, SchemaMetrics)
	}
	var cells []Cell
	for _, fig := range mf.Figures {
		for _, m := range fig.Metrics.Metrics {
			cells = append(cells, Cell{m.Name, m.Value})
		}
	}
	rn := ix.run(run)
	rn.Quick = rn.Quick || mf.Quick
	return rn.add(SchemaMetrics, source, cells)
}

// IngestBenchRecords ingests a bench -out file, one JSON record per
// line. Each record becomes the cells "<workload>/seed<N>/bench/<metric>"
// for its end-to-end metrics plus attempted, failed and correct (1 or
// 0); the bench layer's class table (path.go) splits them into exact
// and perf. A line of another shape, a traced record (trace != 0) and a
// repeated (workload, seed) are errors naming the line.
func (ix *Index) IngestBenchRecords(run string, r io.Reader, source string) error {
	var cells []Cell
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		var rec benchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("lake: %s:%d: %w", source, ln, err)
		}
		if rec.Workload == "" || rec.Result == nil {
			return fmt.Errorf("lake: %s:%d: not a bench record {workload, seed, trace, result}", source, ln)
		}
		if rec.Trace != 0 {
			return fmt.Errorf("lake: %s:%d: traced record (trace %d); only untraced runs are compared", source, ln, rec.Trace)
		}
		p := fmt.Sprintf("%s/seed%d/bench/", rec.Workload, rec.Seed)
		if seen[p] {
			return fmt.Errorf("lake: %s:%d: second record for %s seed %d", source, ln, rec.Workload, rec.Seed)
		}
		seen[p] = true
		correct := 0.0
		if rec.Result.Correct {
			correct = 1
		}
		cells = append(cells,
			Cell{p + "attempted", float64(rec.Result.Attempted)},
			Cell{p + "failed", float64(rec.Result.Failed)},
			Cell{p + "correct", correct})
		for name, m := range rec.Result.Metrics {
			cells = append(cells, Cell{p + name, m.Value})
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("lake: %s: %w", source, err)
	}
	return ix.run(run).add(SchemaBenchRecords, source, cells)
}

// IngestSeriesCSV ingests one -series CSV (header "t_ns,col..." then
// one row per sampler tick) as the named series of the named run.
func (ix *Index) IngestSeriesCSV(run, name string, r io.Reader, source string) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("lake: %s: %w", source, err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		return fmt.Errorf("lake: %s: empty series", source)
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "t_ns" {
		return fmt.Errorf("lake: %s: first column %q, want t_ns", source, header[0])
	}
	s := Series{Name: name, Columns: header[1:], Values: make([][]float64, len(header)-1)}
	for ln, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(header) {
			return fmt.Errorf("lake: %s:%d: %d fields, want %d", source, ln+2, len(fields), len(header))
		}
		t, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("lake: %s:%d: t_ns: %w", source, ln+2, err)
		}
		s.Times = append(s.Times, t)
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return fmt.Errorf("lake: %s:%d: %s: %w", source, ln+2, s.Columns[i], err)
			}
			s.Values[i] = append(s.Values[i], v)
		}
	}
	rn := ix.run(run)
	i, dup := seriesPos(rn.Series, name)
	if dup {
		return fmt.Errorf("lake: %s: duplicate series %q in run %q", source, name, run)
	}
	rn.Series = slices.Insert(rn.Series, i, s)
	return rn.add(SchemaSeries, source, nil)
}

// IngestFile ingests one artifact path into the named run,
// dispatching on shape: a directory ingests every *.csv inside as
// series (named by file stem), a .csv file ingests as one series, a
// .jsonl file as bench records, and a .json file is sniffed for its
// schema tag.
func (ix *Index) IngestFile(run, path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("lake: %w", err)
	}
	if fi.IsDir() {
		ents, err := os.ReadDir(path)
		if err != nil {
			return fmt.Errorf("lake: %w", err)
		}
		n := 0
		for _, ent := range ents {
			if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".csv") {
				continue
			}
			if err := ix.IngestFile(run, filepath.Join(path, ent.Name())); err != nil {
				return err
			}
			n++
		}
		if n == 0 {
			return fmt.Errorf("lake: %s: no *.csv series in directory", path)
		}
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("lake: %w", err)
	}
	base := filepath.Base(path)
	switch {
	case strings.HasSuffix(base, ".csv"):
		return ix.IngestSeriesCSV(run, strings.TrimSuffix(base, ".csv"), bytes.NewReader(data), base)
	case strings.HasSuffix(base, ".jsonl"):
		return ix.IngestBenchRecords(run, bytes.NewReader(data), base)
	case strings.HasSuffix(base, ".json"):
		var probe struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(data, &probe); err != nil {
			return fmt.Errorf("lake: %s: %w", base, err)
		}
		if probe.Schema != SchemaMetrics {
			return fmt.Errorf("lake: %s: unknown schema %q", base, probe.Schema)
		}
		return ix.IngestMetricsJSON(run, bytes.NewReader(data), base)
	default:
		return fmt.Errorf("lake: %s: not a .json, .jsonl, .csv or series directory", path)
	}
}

// DeriveRunName guesses a run key from an artifact file name:
// "BENCH_pr3_metrics.json" and "BENCH_pr3_series" both become "pr3",
// and "BENCH_pr28_before.jsonl" becomes "pr28_before".
func DeriveRunName(path string) string {
	name := filepath.Base(filepath.Clean(path))
	for _, suf := range []string{".jsonl", ".json", ".csv"} {
		name = strings.TrimSuffix(name, suf)
	}
	name = strings.TrimPrefix(name, "BENCH_")
	name = strings.TrimSuffix(name, "_metrics")
	name = strings.TrimSuffix(name, "_series")
	if name == "" {
		return "run"
	}
	return name
}
