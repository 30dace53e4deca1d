package experiments

// The payload of `falconbench -metrics`: an instrumented Run (Options.Tel
// set) yields per-figure metric snapshots embedded in the perf report and
// per-figure suites for `-series` CSV export; MetricsReport keeps the
// deterministic part.
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

	"falcon/internal/telemetry"
)

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
