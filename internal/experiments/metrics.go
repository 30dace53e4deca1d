package experiments

// The payload of `falconbench -metrics`: an instrumented Run (Options.Tel
// set) yields a per-figure metric snapshot and suite in each
// FigureReport; MetricsReport keeps the snapshots, and the suites feed
// `-series` CSV export.
//
// Determinism contract: everything exported here derives from virtual
// time and seeded simulators only — no wall clock, no process state — so
// two same-seed runs write byte-identical -metrics JSON and -series CSVs.
// Wall time appears only in the runner's annotation lines.
//
// Downstream, `make check` regenerates the committed artifacts
// (BENCH_pr{3,8,9}_metrics.json and BENCH_pr3_series/) and compares them
// with the committed files byte for byte; METRICS.md documents every
// metric name emitted here.

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

// NewMetricsReport extracts the deterministic metrics from the figures of
// an instrumented run; quick records whether it used -quick windows.
func NewMetricsReport(figures []FigureReport, quick bool) MetricsReport {
	m := MetricsReport{Schema: "falconmetrics/v1", Quick: quick}
	for _, fr := range figures {
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
