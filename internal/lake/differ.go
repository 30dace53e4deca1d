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
//   - perf    — host-measured bench metrics; flagged only when
//     they move in the metric's "worse" direction by more than the
//     loose perfTol.
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
	// perfTol is Diff's regression band for perf-class cells: one is
	// flagged only when it is worse than the baseline by more than this.
	perfTol = 0.25
	// trendPerfTol is Trend's cumulative perf band — deliberately
	// tighter than perfTol: slow regressions are exactly what the
	// pairwise band forgives.
	trendPerfTol = 0.10
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
			if f, flagged := compareCell(a[0].Path, a[0].Value, b[0].Value); flagged {
				rep.Findings = append(rep.Findings, f)
			}
			a, b = a[1:], b[1:]
		}
	}

	diffSeries(ra, rb, rep)
	return rep, nil
}

// compareCell applies the class rule to one shared cell.
func compareCell(path string, a, b float64) (Finding, bool) {
	cls := ParsePath(path).Class()
	re := relErr(a, b)
	f := Finding{Path: path, Class: cls.String(), A: a, B: b, RelErr: re}
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
	case ClassPerf:
		if perfWorse(ParsePath(path).Metric, a, b) && re > perfTol {
			f.Kind = FindingPerf
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
