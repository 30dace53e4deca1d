package lake

import (
	"strings"

	"falcon/internal/stats"
)

// The query half of the lake: point lookups (lake.go), segment-glob
// selection over metric paths, percentile summaries and time-series
// slices, all read-only over an Index.

// Select returns every cell of the run whose path matches the pattern,
// in sorted path order. Patterns are segment globs over the metric
// path: "*" matches exactly one segment, "**" matches any number
// (including zero), and any other segment matches literally. Examples:
//
//	fig10/*/drop1.0/pdl/retx_rack     one sub-experiment dimension
//	fig10/**/port/tx_bytes            any dims, the port layer's tx_bytes
//	**/srtt_ns                        every smoothed-RTT cell
func (ix *Index) Select(run, pattern string) []Cell {
	r := ix.runs[run]
	if r == nil {
		return nil
	}
	pat := strings.Split(pattern, "/")
	var out []Cell
	for _, c := range r.Cells {
		if matchSegments(pat, strings.Split(c.Path, "/")) {
			out = append(out, c)
		}
	}
	return out
}

// matchSegments reports whether the glob pattern matches the path
// segments.
func matchSegments(pat, segs []string) bool {
	// Walk greedily; "**" branches.
	for len(pat) > 0 {
		switch pat[0] {
		case "**":
			if len(pat) == 1 {
				return true
			}
			for skip := 0; skip <= len(segs); skip++ {
				if matchSegments(pat[1:], segs[skip:]) {
					return true
				}
			}
			return false
		case "*":
			if len(segs) == 0 {
				return false
			}
		default:
			if len(segs) == 0 || segs[0] != pat[0] {
				return false
			}
		}
		pat, segs = pat[1:], segs[1:]
	}
	return len(segs) == 0
}

// Summary is an aggregate over a set of selected values. Count, Mean,
// Min and Max are exact; P50 and P99 come from an internal/stats
// log-linear histogram over the values rounded to non-negative
// integers, so they carry that histogram's ≤1/16 relative error —
// appropriate for the ns- and byte-valued metrics percentiles are
// asked of.
type Summary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// summarize aggregates values into a Summary.
func summarize(vals []float64) Summary {
	var s Summary
	if len(vals) == 0 {
		return s
	}
	var h stats.Histogram
	s.Min, s.Max = vals[0], vals[0]
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		hv := v
		if hv < 0 {
			hv = 0
		}
		h.Record(uint64(hv + 0.5))
	}
	s.Count = len(vals)
	s.Mean = sum / float64(len(vals))
	s.P50 = float64(h.Quantile(50))
	s.P99 = float64(h.Quantile(99))
	return s
}

// Summary aggregates every cell matching the pattern (see Select).
func (ix *Index) Summary(run, pattern string) Summary {
	cells := ix.Select(run, pattern)
	vals := make([]float64, len(cells))
	for i, c := range cells {
		vals[i] = c.Value
	}
	return summarize(vals)
}

// seriesColumn returns one series of the run with one of its value
// columns, or nil when either does not exist.
func (ix *Index) seriesColumn(run, series, col string) (*Series, []float64) {
	s := ix.FindSeries(run, series)
	if s == nil {
		return nil, nil
	}
	return s, s.column(col)
}

// SeriesSlice returns the (t_ns, value) rows of one series column with
// from <= t_ns <= to (use from=0, to=-1 for all rows). The second
// return is false when the series or column does not exist.
func (ix *Index) SeriesSlice(run, series, col string, from, to int64) ([]int64, []float64, bool) {
	s, vals := ix.seriesColumn(run, series, col)
	if vals == nil {
		return nil, nil, false
	}
	var ts []int64
	var vs []float64
	for i, t := range s.Times {
		if t < from || (to >= 0 && t > to) {
			continue
		}
		ts = append(ts, t)
		vs = append(vs, vals[i])
	}
	return ts, vs, true
}

// SeriesSummary aggregates one series column over the full run.
func (ix *Index) SeriesSummary(run, series, col string) (Summary, bool) {
	_, vals := ix.seriesColumn(run, series, col)
	if vals == nil {
		return Summary{}, false
	}
	return summarize(vals), true
}
