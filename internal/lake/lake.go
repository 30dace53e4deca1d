// Package lake is the telemetry lake: a columnar store and query layer
// over the deterministic benchmark artifacts falconbench emits — the
// per-figure metrics snapshots (`falconmetrics/v1` JSON), the
// virtual-clock time-series CSVs (`-series`), and the performance
// reports (`falconbench/v1` JSON). It turns the determinism contract
// (byte-identical same-seed artifacts, DESIGN.md §9) into a
// regression-detection system: artifacts are ingested into one in-memory
// index (a few small files parse in milliseconds, so nothing is stored),
// and any two runs can be compared cell-by-cell.
//
// The package splits into three pieces:
//
//   - Indexer (indexer.go): Builder ingests artifact files, parses the
//     hierarchical metric names into typed dimensions (path.go), and
//     Seal()s into an immutable Index — an interned string dictionary
//     plus sorted parallel columns of (run, metric-path, value) cells
//     and column-major time series.
//   - Querier (querier.go): point lookups, segment-glob selection over
//     metric paths, percentile summaries (reusing internal/stats
//     histograms), and time-series slices.
//   - Differ (differ.go): cell-by-cell comparison of two runs with
//     per-metric determinism classes — exact match for
//     determinism-contract metrics, relative-error tolerance bands for
//     timing-derived and perf metrics — emitting a deterministic
//     findings report.
//
// METRICS.md is the authoritative reference for every metric name that
// flows into the lake and for the dimension grammar ParsePath applies;
// cmd/falconlake is the CLI over this package, and `make check`
// gates every build on each committed artifact ingesting cleanly and
// self-diffing empty.
package lake

import (
	"fmt"
	"sort"
)

// Run is the identity and provenance of one ingested benchmark run.
type Run struct {
	// Name is the run key used in queries and diffs (e.g. "pr3").
	Name string
	// Quick records whether any ingested report was a -quick run.
	Quick bool
	// Schemas lists the artifact schemas ingested into this run,
	// sorted (e.g. "falconbench/v1", "falconmetrics/v1",
	// "falconseries/v1").
	Schemas []string
	// Sources lists the ingested file names (base names), sorted.
	Sources []string
}

// Series is one ingested time series: a shared timestamp column plus
// one value column per tracked probe, stored column-major.
type Series struct {
	run   uint32
	name  uint32
	cols  []uint32
	times []int64
	vals  [][]float64 // [column][row]
}

// Index is the sealed, immutable telemetry lake: an interned string
// dictionary, runs sorted by name, metric cells as parallel columns
// sorted by (run, path), and time series sorted by (run, name).
// Construct one with a Builder; all accessors are
// read-only and safe for concurrent use.
type Index struct {
	strs []string // sorted, unique
	runs []Run

	// Cell columns, sorted by (run index, path string). Because strs
	// is sorted, comparing path ids orders the same as comparing the
	// path strings themselves.
	cellRun  []uint32
	cellPath []uint32
	cellVal  []float64

	// runCellOff[i]..runCellOff[i+1] is run i's cell range.
	runCellOff []uint32

	series []Series
}

// Runs returns the ingested runs, sorted by name.
func (ix *Index) Runs() []Run { return ix.runs }

// NumCells returns the total number of metric cells across all runs.
func (ix *Index) NumCells() int { return len(ix.cellVal) }

// runIndex returns the position of the named run, or -1.
func (ix *Index) runIndex(run string) int {
	i := sort.Search(len(ix.runs), func(i int) bool { return ix.runs[i].Name >= run })
	if i < len(ix.runs) && ix.runs[i].Name == run {
		return i
	}
	return -1
}

// Lookup returns the value of one metric path in one run.
func (ix *Index) Lookup(run, path string) (float64, bool) {
	r := ix.runIndex(run)
	if r < 0 {
		return 0, false
	}
	lo, hi := int(ix.runCellOff[r]), int(ix.runCellOff[r+1])
	i := lo + sort.Search(hi-lo, func(i int) bool {
		return ix.strs[ix.cellPath[lo+i]] >= path
	})
	if i < hi && ix.strs[ix.cellPath[i]] == path {
		return ix.cellVal[i], true
	}
	return 0, false
}

// EachCell calls fn for every (path, value) cell of the named run in
// sorted path order. It reports whether the run exists.
func (ix *Index) EachCell(run string, fn func(path string, v float64)) bool {
	r := ix.runIndex(run)
	if r < 0 {
		return false
	}
	for i := ix.runCellOff[r]; i < ix.runCellOff[r+1]; i++ {
		fn(ix.strs[ix.cellPath[i]], ix.cellVal[i])
	}
	return true
}

// SeriesNames returns the time-series names of the named run, sorted.
func (ix *Index) SeriesNames(run string) []string {
	r := ix.runIndex(run)
	if r < 0 {
		return nil
	}
	var names []string
	for i := range ix.series {
		if int(ix.series[i].run) == r {
			names = append(names, ix.strs[ix.series[i].name])
		}
	}
	return names
}

// SeriesView is a read-only handle on one ingested time series.
type SeriesView struct {
	ix *Index
	s  *Series
}

// FindSeries returns a view of the named series of the named run.
func (ix *Index) FindSeries(run, name string) (SeriesView, bool) {
	r := ix.runIndex(run)
	if r < 0 {
		return SeriesView{}, false
	}
	for i := range ix.series {
		s := &ix.series[i]
		if int(s.run) == r && ix.strs[s.name] == name {
			return SeriesView{ix: ix, s: s}, true
		}
	}
	return SeriesView{}, false
}

// Columns returns the series' value-column names in CSV order.
func (sv SeriesView) Columns() []string {
	out := make([]string, len(sv.s.cols))
	for i, id := range sv.s.cols {
		out[i] = sv.ix.strs[id]
	}
	return out
}

// Rows returns the number of sampled rows.
func (sv SeriesView) Rows() int { return len(sv.s.times) }

// Times returns the shared timestamp column (virtual nanoseconds).
// The returned slice is owned by the index; callers must not mutate it.
func (sv SeriesView) Times() []int64 { return sv.s.times }

// Column returns the named value column (index-owned; do not mutate),
// or nil when the column does not exist.
func (sv SeriesView) Column(name string) []float64 {
	for i, id := range sv.s.cols {
		if sv.ix.strs[id] == name {
			return sv.s.vals[i]
		}
	}
	return nil
}

// intern returns the dictionary id of s, which must be present.
func (ix *Index) intern(s string) (uint32, error) {
	i := sort.SearchStrings(ix.strs, s)
	if i < len(ix.strs) && ix.strs[i] == s {
		return uint32(i), nil
	}
	return 0, fmt.Errorf("lake: string %q not in dictionary", s)
}
