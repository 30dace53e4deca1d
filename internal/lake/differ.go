package lake

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// The differ half of the lake: cell-by-cell comparison of two runs,
// with each metric compared under its determinism class (path.go):
//
//   - exact   — determinism-contract metrics; any difference is a
//     behavior change and is flagged.
//   - timing  — timing-derived metrics; flagged beyond a relative
//     tolerance band (Options.RelTol).
//   - perf    — falconbench/v1 wall-clock metrics; flagged only when
//     they move in the metric's "worse" direction by more than the
//     loose Options.PerfTol.
//
// Findings, and the rendered report, are deterministic: comparison
// walks both runs' sorted cell columns merge-style, so the same pair
// of runs always produces byte-identical output. Diffing a run
// against itself reports zero findings by construction — the property
// `make check` asserts over the committed artifacts.

// Options configures diff tolerances. The zero value uses defaults.
type Options struct {
	// RelTol is the relative-error band for ClassTiming metrics
	// (default 0.05, i.e. ±5%).
	RelTol float64
	// PerfTol is the regression band for ClassPerf metrics (default
	// 0.25): a perf metric is flagged only when it is worse than the
	// baseline by more than this fraction.
	PerfTol float64
}

func (o Options) withDefaults() Options {
	if o.RelTol == 0 {
		o.RelTol = 0.05
	}
	if o.PerfTol == 0 {
		o.PerfTol = 0.25
	}
	return o
}

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
	case "events_per_sec", "events":
		return b < a
	default: // wall_ms, ns_per_event, allocs_per_event
		return b > a
	}
}

// Diff compares runB against baseline runA cell-by-cell and
// series-by-series.
func Diff(ix *Index, runA, runB string, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	ra, rb := ix.runIndex(runA), ix.runIndex(runB)
	if ra < 0 {
		return nil, fmt.Errorf("lake: run %q not in index", runA)
	}
	if rb < 0 {
		return nil, fmt.Errorf("lake: run %q not in index", runB)
	}
	rep := &Report{Schema: "falconlakediff/v1", RunA: runA, RunB: runB}

	// Merge-walk the two sorted cell ranges.
	ia, ea := int(ix.runCellOff[ra]), int(ix.runCellOff[ra+1])
	ib, eb := int(ix.runCellOff[rb]), int(ix.runCellOff[rb+1])
	for ia < ea || ib < eb {
		switch {
		case ib >= eb || (ia < ea && ix.strs[ix.cellPath[ia]] < ix.strs[ix.cellPath[ib]]):
			p := ix.strs[ix.cellPath[ia]]
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingMissing, Path: p, Class: ParsePath(p).Class().String(),
				A: ix.cellVal[ia],
			})
			ia++
		case ia >= ea || ix.strs[ix.cellPath[ib]] < ix.strs[ix.cellPath[ia]]:
			p := ix.strs[ix.cellPath[ib]]
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingExtra, Path: p, Class: ParsePath(p).Class().String(),
				B: ix.cellVal[ib],
			})
			ib++
		default:
			p := ix.strs[ix.cellPath[ia]]
			a, b := ix.cellVal[ia], ix.cellVal[ib]
			rep.CellsCompared++
			if f, flagged := compareCell(p, a, b, opt); flagged {
				rep.Findings = append(rep.Findings, f)
			}
			ia++
			ib++
		}
	}

	diffSeries(ix, ra, rb, opt, rep)
	return rep, nil
}

// compareCell applies the class rule to one shared cell.
func compareCell(path string, a, b float64, opt Options) (Finding, bool) {
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
		if re > opt.RelTol {
			f.Kind = FindingDrift
			return f, true
		}
	case ClassPerf:
		if perfWorse(ParsePath(path).Metric, a, b) && re > opt.PerfTol {
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
func diffSeries(ix *Index, ra, rb int, opt Options, rep *Report) {
	namesOf := func(r int) map[string]*Series {
		m := make(map[string]*Series)
		for i := range ix.series {
			if int(ix.series[i].run) == r {
				m[ix.strs[ix.series[i].name]] = &ix.series[i]
			}
		}
		return m
	}
	sa, sb := namesOf(ra), namesOf(rb)
	for _, name := range sortedKeys(sa) {
		a := sa[name]
		b, ok := sb[name]
		if !ok {
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingShape, Path: "series:" + name, Class: "exact",
				Detail: "series missing in " + rep.RunB,
			})
			continue
		}
		rep.SeriesCompared++
		diffOneSeries(ix, name, a, b, opt, rep)
	}
	for _, name := range sortedKeys(sb) {
		if _, ok := sa[name]; !ok {
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingShape, Path: "series:" + name, Class: "exact",
				Detail: "series missing in " + rep.RunA,
			})
		}
	}
}

func diffOneSeries(ix *Index, name string, a, b *Series, opt Options, rep *Report) {
	colsA, colsB := seriesColNames(ix, a), seriesColNames(ix, b)
	if strings.Join(colsA, ",") != strings.Join(colsB, ",") {
		rep.Findings = append(rep.Findings, Finding{
			Kind: FindingShape, Path: "series:" + name, Class: "exact",
			Detail: fmt.Sprintf("columns differ: %v vs %v", colsA, colsB),
		})
		return
	}
	rows := len(a.times)
	if len(b.times) != rows {
		rep.Findings = append(rep.Findings, Finding{
			Kind: FindingShape, Path: "series:" + name, Class: "exact",
			A: float64(rows), B: float64(len(b.times)),
			Detail: "row counts differ",
		})
		return
	}
	for i := 0; i < rows; i++ {
		if a.times[i] != b.times[i] {
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingShape, Path: "series:" + name + "/t_ns", Class: "exact",
				A: float64(a.times[i]), B: float64(b.times[i]),
				Detail: fmt.Sprintf("timestamps diverge at row %d", i),
			})
			return
		}
	}
	for c, col := range colsA {
		cls := ParsePath(col).Class()
		var bad, firstRow int
		var firstA, firstB, maxRE float64
		for i := 0; i < rows; i++ {
			va, vb := a.vals[c][i], b.vals[c][i]
			re := relErr(va, vb)
			flag := false
			switch cls {
			case ClassTiming:
				flag = re > opt.RelTol
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
				Detail: fmt.Sprintf("%d/%d rows differ, first at t_ns=%d", bad, rows, a.times[firstRow]),
			})
		}
	}
}

func seriesColNames(ix *Index, s *Series) []string {
	out := make([]string, len(s.cols))
	for i, id := range s.cols {
		out[i] = ix.strs[id]
	}
	return out
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
