// Package lake is the telemetry lake: a store and query layer over the
// artifacts the repository commits — the per-figure metrics snapshots
// (`falconmetrics/v1` JSON), the virtual-clock time-series CSVs
// (`-series`), and the bench records (`bench -out` JSON lines). It turns the
// determinism contract (byte-identical same-seed artifacts, DESIGN.md
// §9) into a regression-detection system: artifacts are ingested into
// one in-memory index (a few small files parse in milliseconds, so
// nothing is stored), and any two runs can be compared cell-by-cell.
//
// The package splits into three pieces:
//
//   - Ingest (indexer.go): reads artifact files into an Index — runs
//     keyed by name, each holding its metric cells sorted by path and its
//     time series sorted by name. Metric names parse into typed
//     dimensions (path.go).
//   - Queries (querier.go): point lookups, segment-glob selection over
//     metric paths, percentile summaries (reusing internal/stats
//     histograms), and time-series slices.
//   - Differ (differ.go, trend.go): cell-by-cell comparison of two runs
//     with per-metric determinism classes — exact match for
//     determinism-contract metrics, fixed relative-error tolerance bands
//     for timing-derived and perf metrics — emitting a deterministic
//     findings report.
//
// METRICS.md is the authoritative reference for every metric name that
// flows into the lake and for the dimension grammar ParsePath applies;
// cmd/falconlake is the CLI over this package, and `make check` gates
// every build on the committed metrics snapshots regenerating without
// findings and on every committed bench before/after pair diffing clean.
package lake

import (
	"slices"
	"strings"
)

// Run is one ingested benchmark run: its provenance, its metric cells
// and its time series.
type Run struct {
	// Name is the run key used in queries and diffs (e.g. "pr3").
	Name string
	// Quick records whether any ingested report was a -quick run.
	Quick bool
	// Schemas lists the artifact schemas ingested into this run,
	// sorted (e.g. "benchrecords/v1", "falconmetrics/v1",
	// "falconseries/v1").
	Schemas []string
	// Sources lists the ingested file names (base names), sorted.
	Sources []string
	// Cells holds every metric cell of the run, sorted by path.
	Cells []Cell
	// Series holds the run's time series, sorted by name.
	Series []Series
}

// Cell is one (metric path, value) pair.
type Cell struct {
	Path  string
	Value float64
}

// Series is one ingested time series: a shared timestamp column plus
// one value column per tracked probe.
type Series struct {
	Name    string
	Columns []string
	// Times is the shared timestamp column (virtual nanoseconds).
	Times []int64
	// Values holds one column per entry of Columns: Values[col][row].
	Values [][]float64
}

// column returns the named value column, or nil when it does not exist.
func (s *Series) column(name string) []float64 {
	if i := slices.Index(s.Columns, name); i >= 0 {
		return s.Values[i]
	}
	return nil
}

// Index is the telemetry lake: the ingested runs, keyed by name. The
// zero value is an empty index ready for ingest. Ingest keeps every
// run's cells and series sorted, so the index never depends on ingest
// order; once ingest is done, every accessor is read-only and safe for
// concurrent use.
type Index struct {
	runs map[string]*Run
}

// Runs returns the ingested runs, sorted by name.
func (ix *Index) Runs() []*Run {
	out := make([]*Run, 0, len(ix.runs))
	for _, r := range ix.runs {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b *Run) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Lookup returns the value of one metric path in one run.
func (ix *Index) Lookup(run, path string) (float64, bool) {
	r := ix.runs[run]
	if r == nil {
		return 0, false
	}
	i, ok := slices.BinarySearchFunc(r.Cells, path, func(c Cell, p string) int {
		return strings.Compare(c.Path, p)
	})
	if !ok {
		return 0, false
	}
	return r.Cells[i].Value, true
}

// SeriesNames returns the time-series names of the named run, sorted.
func (ix *Index) SeriesNames(run string) []string {
	r := ix.runs[run]
	if r == nil {
		return nil
	}
	var names []string
	for _, s := range r.Series {
		names = append(names, s.Name)
	}
	return names
}

// FindSeries returns the named series of the named run, or nil.
func (ix *Index) FindSeries(run, name string) *Series {
	if r := ix.runs[run]; r != nil {
		return r.findSeries(name)
	}
	return nil
}

// findSeries returns the run's series of that name, or nil.
func (r *Run) findSeries(name string) *Series {
	i, ok := seriesPos(r.Series, name)
	if !ok {
		return nil
	}
	return &r.Series[i]
}

// seriesPos binary-searches name-sorted series for name.
func seriesPos(ss []Series, name string) (int, bool) {
	return slices.BinarySearchFunc(ss, name, func(s Series, n string) int {
		return strings.Compare(s.Name, n)
	})
}
