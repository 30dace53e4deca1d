package lake

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// The trend half of the differ: where Diff compares two runs under a
// per-pair tolerance, Trend walks three or more runs in the order given
// (oldest first) and flags metrics that creep monotonically in one
// direction. A perf metric regressing 8% per PR never trips the 25%
// pairwise band, yet four such PRs compound into a 36% loss; a timing
// metric drifting 3% per run hides the same way under the 5% band. The
// cumulative first-to-last drift of a monotonic sequence is the signal
// pairwise diffing structurally cannot see.
//
// Exact-class metrics are deliberately out of scope: any cross-run
// change in an exact cell is already a finding for the pairwise differ,
// so a trend report would only duplicate it.

// TrendFinding is one metric drifting monotonically across the run
// sequence.
type TrendFinding struct {
	// Path is the metric path.
	Path string `json:"path"`
	// Class is the determinism class ("timing" or "perf").
	Class string `json:"class"`
	// Direction is "up" or "down" (the sign of every step).
	Direction string `json:"direction"`
	// Values is the metric's value in each run, oldest first.
	Values []float64 `json:"values"`
	// RelErr is the cumulative first-to-last relative error.
	RelErr float64 `json:"rel_err"`
	// MaxStepRelErr is the largest single-step relative error — when it
	// is under the pairwise tolerance, no two-run diff could have
	// flagged this drift.
	MaxStepRelErr float64 `json:"max_step_rel_err"`
}

// TrendReport is the outcome of a trend scan over an ordered run
// sequence.
type TrendReport struct {
	Schema        string         `json:"schema"`
	Runs          []string       `json:"runs"`
	CellsCompared int            `json:"cells_compared"`
	Findings      []TrendFinding `json:"findings"`
}

// Empty reports whether the scan found nothing.
func (r *TrendReport) Empty() bool { return len(r.Findings) == 0 }

// Trend scans the runs in the order given (oldest first) for metrics
// drifting monotonically. Only cells present in every run participate:
// missing cells are the pairwise differ's finding, not a trend. At
// least three runs are required — two runs cannot distinguish a trend
// from a step, and Diff already covers the pair. Drift is judged
// against timingTol and trendPerfTol (differ.go).
func Trend(ix *Index, runs []string) (*TrendReport, error) {
	if len(runs) < 3 {
		return nil, fmt.Errorf("lake: trend needs at least 3 runs, got %d", len(runs))
	}
	for _, r := range runs {
		if ix.runs[r] == nil {
			return nil, fmt.Errorf("lake: run %q not in index", r)
		}
	}
	rep := &TrendReport{Schema: "falconlaketrend/v1", Runs: runs}

	// Walk the first run's sorted cells; the chain is only as long as
	// the paths every run shares.
cells:
	for _, c := range ix.runs[runs[0]].Cells {
		vals := make([]float64, 0, len(runs))
		vals = append(vals, c.Value)
		for _, r := range runs[1:] {
			v, ok := ix.Lookup(r, c.Path)
			if !ok {
				continue cells
			}
			vals = append(vals, v)
		}
		rep.CellsCompared++
		if f, flagged := classifyTrend(c.Path, vals); flagged {
			rep.Findings = append(rep.Findings, f)
		}
	}
	return rep, nil
}

// classifyTrend applies the class rule to one complete value chain.
func classifyTrend(path string, vals []float64) (TrendFinding, bool) {
	p := ParsePath(path)
	cls := p.Class()
	if cls == ClassExact {
		return TrendFinding{}, false
	}
	dir, maxStep, ok := monotone(vals)
	if !ok {
		return TrendFinding{}, false
	}
	cum := relErr(vals[0], vals[len(vals)-1])
	switch cls {
	case ClassTiming:
		if cum <= timingTol {
			return TrendFinding{}, false
		}
	case ClassPerf:
		if cum <= trendPerfTol || !perfWorse(p.Metric, vals[0], vals[len(vals)-1]) {
			return TrendFinding{}, false
		}
	}
	return TrendFinding{
		Path: path, Class: cls.String(), Direction: dir,
		Values: vals, RelErr: cum, MaxStepRelErr: maxStep,
	}, true
}

// monotone reports whether vals move weakly in one direction with at
// least one strict step, returning the direction and the largest
// single-step relative error.
func monotone(vals []float64) (dir string, maxStep float64, ok bool) {
	up, down := true, true
	for i := 1; i < len(vals); i++ {
		a, b := vals[i-1], vals[i]
		if math.IsNaN(a) || math.IsNaN(b) {
			return "", 0, false
		}
		if b > a {
			down = false
		}
		if b < a {
			up = false
		}
		if re := relErr(a, b); re > maxStep {
			maxStep = re
		}
	}
	first, last := vals[0], vals[len(vals)-1]
	switch {
	case up && last > first:
		return "up", maxStep, true
	case down && last < first:
		return "down", maxStep, true
	}
	return "", maxStep, false
}

// WriteText renders the report for humans, findings in deterministic
// (sorted-path) order. An empty report renders a single "no trends"
// line.
func (r *TrendReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "trend over %s: %d cells in all %d runs\n",
		strings.Join(r.Runs, " -> "), r.CellsCompared, len(r.Runs)); err != nil {
		return err
	}
	if r.Empty() {
		_, err := fmt.Fprintf(w, "no trends\n")
		return err
	}
	if _, err := fmt.Fprintf(w, "%d monotonic drifts:\n", len(r.Findings)); err != nil {
		return err
	}
	for _, f := range r.Findings {
		parts := make([]string, len(f.Values))
		for i, v := range f.Values {
			parts[i] = fmtVal(v)
		}
		if _, err := fmt.Fprintf(w, "  %-4s [%s] %s: %s (cum %.4f, max step %.4f)\n",
			f.Direction, f.Class, f.Path, strings.Join(parts, " -> "), f.RelErr, f.MaxStepRelErr); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the report as indented JSON, byte-deterministic for
// equal reports.
func (r *TrendReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
