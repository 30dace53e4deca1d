package experiments

// The instrumented runner behind `falconbench -metrics` and `-series`:
// entries that define RunTel execute with a telemetry.Suite attached, and
// the run yields (a) per-figure metric snapshots embedded in the perf
// report and (b) per-figure samplers for CSV export.
//
// Determinism contract (ISSUE 3): everything exported here derives from
// virtual time and seeded simulators only — no wall clock, no process
// state — so two same-seed runs write byte-identical -metrics JSON and
// -series CSVs. Wall-time fields live exclusively in BenchReport, which
// is why MetricsReport is a separate, stripped payload.
//
// Downstream, internal/lake indexes these artifacts (the committed
// BENCH_pr3_metrics.json and BENCH_pr3_series/) for cross-run queries
// and regression diffs; METRICS.md documents every metric name emitted
// here and the per-metric diff policy.

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"falcon/internal/sim"
	"falcon/internal/telemetry"
)

// RunInstrumented executes the entries serially with telemetry attached
// wherever an entry provides RunTel, printing tables to w exactly like a
// serial Run. It returns the perf report — whose figures carry metric
// snapshots — plus one Suite per entry (index-aligned with entries) for
// time-series export. Entries without RunTel run uninstrumented and get
// an empty snapshot.
//
// Instrumented runs are always serial: telemetry adds sampler events to
// each figure's simulators, and attributing those deterministically is
// only meaningful one figure at a time.
func RunInstrumented(entries []Entry, quick bool, w io.Writer) (BenchReport, []*telemetry.Suite) {
	rep := BenchReport{
		Schema:    "falconbench/v1",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Quick:     quick,
		Parallel:  1,
		Figures:   make([]FigureReport, len(entries)),
	}
	suites := make([]*telemetry.Suite, len(entries))
	start := time.Now()
	events0 := sim.TotalDelivered()
	for i, e := range entries {
		tel := telemetry.NewSuite()
		suites[i] = tel
		run := func() *Table {
			if e.RunTel != nil {
				return e.RunTel(quick, tel)
			}
			return e.Run(quick)
		}
		rep.Figures[i] = runFigure(e.Name, run, w, true)
		// Snapshots aggregate many independent simulators per figure, so
		// there is no single virtual timestamp to stamp; use zero.
		snap := tel.Snapshot(0)
		rep.Figures[i].Metrics = &snap
	}
	wall := time.Since(start)
	rep.WallMS = float64(wall.Nanoseconds()) / 1e6
	rep.Events = sim.TotalDelivered() - events0
	if s := wall.Seconds(); s > 0 {
		rep.EventsPerSec = float64(rep.Events) / s
	}
	return rep, suites
}

// FigureMetrics is one figure's entry in the -metrics payload.
type FigureMetrics struct {
	Name    string             `json:"name"`
	Metrics telemetry.Snapshot `json:"metrics"`
}

// MetricsReport is the payload of falconbench -metrics: the deterministic
// subset of an instrumented run. Figures that exported no metrics are
// omitted.
type MetricsReport struct {
	Schema  string          `json:"schema"`
	Quick   bool            `json:"quick"`
	Figures []FigureMetrics `json:"figures"`
}

// NewMetricsReport extracts the deterministic metrics from an
// instrumented run's perf report.
func NewMetricsReport(rep BenchReport) MetricsReport {
	m := MetricsReport{Schema: "falconmetrics/v1", Quick: rep.Quick}
	for _, fr := range rep.Figures {
		if fr.Metrics == nil || len(fr.Metrics.Metrics) == 0 {
			continue
		}
		m.Figures = append(m.Figures, FigureMetrics{Name: fr.Name, Metrics: *fr.Metrics})
	}
	return m
}

// WriteJSON writes the report as indented JSON with a trailing newline.
// Metric values render via encoding/json's shortest-round-trip float
// encoding, so equal runs produce equal bytes.
func (m *MetricsReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
