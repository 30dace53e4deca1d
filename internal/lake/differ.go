package lake

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// The differ half of the lake: cell-by-cell comparison of two runs,
// with each metric compared under its determinism class (path.go):
//
//   - exact   — determinism-contract metrics; any difference is a
//     behavior change and is flagged.
//   - timing  — timing-derived metrics; flagged beyond the relative
//     tolerance band timingTol.
//   - perf    — host-measured bench metrics, judged per set rather
//     than per cell: one verdict per (workload, metric) over all the
//     seeds both runs share (perfSet).
//
// Findings, and the rendered report, are deterministic: comparison
// walks both runs' sorted cells merge-style, so the same pair
// of runs always produces byte-identical output. Diffing a run
// against itself reports zero findings by construction.

// The tolerance bands, as fractions of the larger magnitude (relErr).
// They are constants: a band is part of what a committed artifact
// pair is judged by, so every caller gets the same one.
const (
	// timingTol is the band for timing-class cells and series columns,
	// per pair in Diff and cumulatively along a chain in Trend (±5%).
	timingTol = 0.05
	// trendPerfTol is Trend's cumulative perf band: a slow drift along
	// a chain of artifacts is what no single pair shows.
	trendPerfTol = 0.10
)

// Diff's set gate for perf-class cells. For each (workload, metric), every
// seed both runs share gives a ratio, change over baseline oriented so
// that above 1 is worse. The set is flagged when the median ratio exceeds
// 1+setBand and at least setWorseFrac of the seeds are worse. Neither rule
// alone is enough: the median ignores one noisy seed, and the count keeps
// a lucky median from flagging a set that is mostly better. Both were
// calibrated on five parent-against-parent sets of 10 seeds × 4 workloads
// (testdata/calibration, tabulated in EXPERIMENTS.md), whose worst cell
// read 1.059 on 8 of 10 seeds: the band sits midway between that and the
// uniform 10 % slowdown it must flag.
const (
	setBand      = 0.08
	setWorseFrac = 0.7
)

// Finding kinds.
const (
	FindingMissing = "missing"      // present in A, absent in B
	FindingExtra   = "extra"        // absent in A, present in B
	FindingDrift   = "value-drift"  // exact/timing metric moved
	FindingPerf    = "perf-regress" // perf metric moved in the worse direction
	FindingSeries  = "series-drift" // time-series column differs
	FindingShape   = "series-shape" // series/column/row structure differs
)

// Finding is one flagged difference between two runs.
type Finding struct {
	// Kind is one of the Finding* constants.
	Kind string `json:"kind"`
	// Path is the metric path, or "series:<name>/<column>" for series
	// findings.
	Path string `json:"path"`
	// Class is the determinism class the comparison used.
	Class string `json:"class"`
	// A and B are the two values (first differing row for series).
	A float64 `json:"a"`
	B float64 `json:"b"`
	// RelErr is |a-b| / max(|a|,|b|).
	RelErr float64 `json:"rel_err"`
	// Detail carries series context: differing-row count and first
	// differing timestamp.
	Detail string `json:"detail,omitempty"`
}

// Report is the outcome of diffing two runs.
type Report struct {
	Schema         string    `json:"schema"`
	RunA           string    `json:"run_a"`
	RunB           string    `json:"run_b"`
	CellsCompared  int       `json:"cells_compared"`
	SeriesCompared int       `json:"series_compared"`
	Findings       []Finding `json:"findings"`
}

// Empty reports whether the diff found nothing.
func (r *Report) Empty() bool { return len(r.Findings) == 0 }

// relErr is the symmetric relative error between a and b.
func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

// perfWorse reports whether moving from a to b is the regression
// direction for the named perf metric. Throughput-like metrics regress
// downward; cost-like metrics regress upward.
func perfWorse(metric string, a, b float64) bool {
	switch metric {
	case "events_per_sec":
		return b < a
	default: // host_ns_per_op, setup_s, heap_*, allocs_*
		return b > a
	}
}

// Diff compares runB against baseline runA cell-by-cell and
// series-by-series.
func Diff(ix *Index, runA, runB string) (*Report, error) {
	ra, rb := ix.runs[runA], ix.runs[runB]
	if ra == nil {
		return nil, fmt.Errorf("lake: run %q not in index", runA)
	}
	if rb == nil {
		return nil, fmt.Errorf("lake: run %q not in index", runB)
	}
	rep := &Report{Schema: "falconlakediff/v1", RunA: runA, RunB: runB}

	// Merge-walk the two sorted cell slices.
	sets := map[string]*perfSet{}
	a, b := ra.Cells, rb.Cells
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0].Path < b[0].Path):
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingMissing, Path: a[0].Path, Class: ParsePath(a[0].Path).Class().String(),
				A: a[0].Value,
			})
			a = a[1:]
		case len(a) == 0 || b[0].Path < a[0].Path:
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingExtra, Path: b[0].Path, Class: ParsePath(b[0].Path).Class().String(),
				B: b[0].Value,
			})
			b = b[1:]
		default:
			rep.CellsCompared++
			if p := ParsePath(a[0].Path); p.Class() == ClassPerf {
				key := setKey(p)
				if sets[key] == nil {
					sets[key] = &perfSet{metric: p.Metric}
				}
				sets[key].add(a[0].Value, b[0].Value)
			} else if f, flagged := compareCell(p, a[0].Value, b[0].Value); flagged {
				rep.Findings = append(rep.Findings, f)
			}
			a, b = a[1:], b[1:]
		}
	}
	keys := make([]string, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if f, flagged := sets[k].judge(k); flagged {
			rep.Findings = append(rep.Findings, f)
		}
	}

	diffSeries(ra, rb, rep)
	return rep, nil
}

// setKey names the set a perf cell belongs to: its path without the seed
// dimension ("incast_conns/seed7/bench/host_ns_per_op" is in set
// "incast_conns/bench/host_ns_per_op").
func setKey(p Path) string {
	dims := slices.DeleteFunc(slices.Clone(p.Dims), func(d string) bool { return strings.HasPrefix(d, "seed") })
	return strings.Join(append(dims, p.Layer, p.Metric), "/")
}

// perfSet gathers one (workload, metric)'s per-seed values from both runs.
type perfSet struct {
	metric string
	a, b   []float64
}

func (s *perfSet) add(a, b float64) { s.a, s.b = append(s.a, a), append(s.b, b) }

// judge applies the set gate. The finding carries the two runs' median
// values; Detail gives the median ratio and the count of worse seeds.
func (s *perfSet) judge(key string) (Finding, bool) {
	n := len(s.a)
	ratios := make([]float64, n)
	worse := 0
	for i := range s.a {
		ratios[i] = worseRatio(s.metric, s.a[i], s.b[i])
		if ratios[i] > 1 {
			worse++
		}
	}
	med := median(ratios)
	if med <= 1+setBand || float64(worse) < setWorseFrac*float64(n) {
		return Finding{}, false
	}
	ma, mb := median(s.a), median(s.b)
	return Finding{
		Kind: FindingPerf, Path: key, Class: ClassPerf.String(), A: ma, B: mb, RelErr: relErr(ma, mb),
		Detail: fmt.Sprintf("median per-seed ratio %.3f, %d/%d seeds worse", med, worse, n),
	}, true
}

// worseRatio is the change over the baseline, b/a, oriented so that above
// 1 is the metric's regression direction (perfWorse).
func worseRatio(metric string, a, b float64) float64 {
	if a == b {
		return 1
	}
	if perfWorse(metric, 2, 1) { // higher is better: invert
		a, b = b, a
	}
	return b / a // +Inf from a zero baseline

}

// median returns the median of vs (the mean of the middle two for an even
// count), leaving vs unchanged.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compareCell applies the class rule to one shared exact or timing cell.
func compareCell(p Path, a, b float64) (Finding, bool) {
	cls := p.Class()
	re := relErr(a, b)
	f := Finding{Path: p.Raw, Class: cls.String(), A: a, B: b, RelErr: re}
	switch cls {
	case ClassExact:
		// NaN != NaN would flag identical snapshots; compare bits.
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			f.Kind = FindingDrift
			return f, true
		}
	case ClassTiming:
		if re > timingTol {
			f.Kind = FindingDrift
			return f, true
		}
	}
	return Finding{}, false
}

// diffSeries compares the two runs' time series. Structural
// differences (missing series, differing columns or row counts) are
// shape findings; shared columns are compared row-by-row under the
// column metric's class, aggregated into at most one finding per
// column.
func diffSeries(ra, rb *Run, rep *Report) {
	for i := range ra.Series {
		a := &ra.Series[i]
		b := rb.findSeries(a.Name)
		if b == nil {
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingShape, Path: "series:" + a.Name, Class: "exact",
				Detail: "series missing in " + rep.RunB,
			})
			continue
		}
		rep.SeriesCompared++
		diffOneSeries(a, b, rep)
	}
	for _, b := range rb.Series {
		if ra.findSeries(b.Name) == nil {
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingShape, Path: "series:" + b.Name, Class: "exact",
				Detail: "series missing in " + rep.RunA,
			})
		}
	}
}

func diffOneSeries(a, b *Series, rep *Report) {
	name := a.Name
	if !slices.Equal(a.Columns, b.Columns) {
		rep.Findings = append(rep.Findings, Finding{
			Kind: FindingShape, Path: "series:" + name, Class: "exact",
			Detail: fmt.Sprintf("columns differ: %v vs %v", a.Columns, b.Columns),
		})
		return
	}
	rows := len(a.Times)
	if len(b.Times) != rows {
		rep.Findings = append(rep.Findings, Finding{
			Kind: FindingShape, Path: "series:" + name, Class: "exact",
			A: float64(rows), B: float64(len(b.Times)),
			Detail: "row counts differ",
		})
		return
	}
	for i := 0; i < rows; i++ {
		if a.Times[i] != b.Times[i] {
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingShape, Path: "series:" + name + "/t_ns", Class: "exact",
				A: float64(a.Times[i]), B: float64(b.Times[i]),
				Detail: fmt.Sprintf("timestamps diverge at row %d", i),
			})
			return
		}
	}
	for c, col := range a.Columns {
		cls := ParsePath(col).Class()
		var bad, firstRow int
		var firstA, firstB, maxRE float64
		for i := 0; i < rows; i++ {
			va, vb := a.Values[c][i], b.Values[c][i]
			re := relErr(va, vb)
			flag := false
			switch cls {
			case ClassTiming:
				flag = re > timingTol
			default:
				flag = va != vb && !(math.IsNaN(va) && math.IsNaN(vb))
			}
			if flag {
				if bad == 0 {
					firstRow, firstA, firstB = i, va, vb
				}
				if re > maxRE {
					maxRE = re
				}
				bad++
			}
		}
		if bad > 0 {
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingSeries, Path: "series:" + name + "/" + col,
				Class: cls.String(), A: firstA, B: firstB, RelErr: maxRE,
				Detail: fmt.Sprintf("%d/%d rows differ, first at t_ns=%d", bad, rows, a.Times[firstRow]),
			})
		}
	}
}

// WriteText renders the report for humans, findings in deterministic
// order. An empty report renders a single "no findings" line.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "diff %s -> %s: %d cells, %d series compared\n",
		r.RunA, r.RunB, r.CellsCompared, r.SeriesCompared); err != nil {
		return err
	}
	if r.Empty() {
		_, err := fmt.Fprintf(w, "no findings\n")
		return err
	}
	if _, err := fmt.Fprintf(w, "%d findings:\n", len(r.Findings)); err != nil {
		return err
	}
	for _, f := range r.Findings {
		var err error
		switch f.Kind {
		case FindingMissing:
			_, err = fmt.Fprintf(w, "  %-13s %s (a=%s)\n", f.Kind, f.Path, fmtVal(f.A))
		case FindingExtra:
			_, err = fmt.Fprintf(w, "  %-13s %s (b=%s)\n", f.Kind, f.Path, fmtVal(f.B))
		case FindingShape:
			_, err = fmt.Fprintf(w, "  %-13s %s: %s\n", f.Kind, f.Path, f.Detail)
		default:
			detail := ""
			if f.Detail != "" {
				detail = " (" + f.Detail + ")"
			}
			_, err = fmt.Fprintf(w, "  %-13s [%s] %s: %s -> %s (rel %.4f)%s\n",
				f.Kind, f.Class, f.Path, fmtVal(f.A), fmtVal(f.B), f.RelErr, detail)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the report as indented JSON, byte-deterministic
// for equal reports.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// fmtVal renders a value in shortest round-trip form, matching the
// artifact encoding.
func fmtVal(v float64) string {
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}
