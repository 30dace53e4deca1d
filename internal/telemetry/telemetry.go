// Package telemetry is the deterministic observability subsystem for the
// Falcon reproduction: typed metric registries, log-linear histograms
// (internal/stats) and virtual-clock time-series samplers.
//
// Two properties shape every API here:
//
//   - Zero allocation when armed. Counters bump a plain uint64 and
//     histograms write into a fixed array. Protocol hot paths can leave
//     instrumentation attached permanently without perturbing the
//     allocation benchmarks (see TestTelemetryZeroAlloc).
//
//   - Determinism. Nothing in this package reads the wall clock: samples
//     are stamped with sim.Time, snapshots walk registrations in sorted
//     name order, and floats are formatted with strconv's shortest
//     round-trip form. Two same-seed runs therefore export byte-identical
//     JSON and CSV — the property the acceptance test in
//     internal/experiments/telemetry_test.go locks in.
//
// The package observes the stack through the same nil-checked single-slot
// hooks verification uses (pdl.Probe, tl.Probe, sim.Observer,
// netsim.Host.SetTap, fae observer); layer stats structs are read lazily
// at snapshot or sampler-tick time, never on the packet path. DESIGN.md §9
// documents the metric catalogue and the determinism contract; METRICS.md
// is the authoritative per-metric reference (kind, unit, meaning), held to
// the collectors in both directions by TestMetricsDocComplete. Exported
// snapshots and series are byte-exact, so `make check` gates the
// committed ones by comparing bytes.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"falcon/internal/sim"
	"falcon/internal/stats"
)

// Counter is a monotonically increasing metric. Incrementing is a plain
// integer add — no atomics (simulators are single-threaded) and no
// allocation.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n += d }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Registry is a named collection of metrics. Registration happens at
// setup time (it allocates); reading registered instruments at snapshot
// time walks them in sorted name order so exports are deterministic.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]func() float64
	hists    map[string]*stats.Histogram
	lazy     []func(emit func(name string, value float64))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*stats.Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge registers a polled gauge: fn is evaluated at snapshot and
// sampler-tick time, never on a hot path. Re-registering a name replaces
// the previous function.
func (r *Registry) Gauge(name string, fn func() float64) { r.gauges[name] = fn }

// Histogram returns the named histogram, creating it on first use.
// Histograms expand into <name>/count, /mean, /p50, /p99 and /max metrics
// in snapshots.
func (r *Registry) Histogram(name string) *stats.Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &stats.Histogram{}
	r.hists[name] = h
	return h
}

// OnSnapshot registers a lazy collector invoked at snapshot time with an
// emit callback. Sinks use this to publish whole layer Stats structs
// without per-event cost (see sinks.go).
func (r *Registry) OnSnapshot(fn func(emit func(name string, value float64))) {
	r.lazy = append(r.lazy, fn)
}

// Metric is one named value in a snapshot.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is the registry's state at one virtual instant. Metrics are
// sorted by name; marshaling a snapshot with encoding/json is
// byte-deterministic for identical metric values.
type Snapshot struct {
	// AtNs is the virtual timestamp of the snapshot in nanoseconds.
	AtNs int64 `json:"at_ns"`
	// Metrics lists every metric sorted by name.
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every registered metric at virtual time at.
func (r *Registry) Snapshot(at sim.Time) Snapshot {
	var ms []Metric
	emit := func(name string, value float64) {
		ms = append(ms, Metric{Name: name, Value: value})
	}
	for name, c := range r.counters {
		emit(name, float64(c.n))
	}
	for name, fn := range r.gauges {
		emit(name, fn())
	}
	for name, h := range r.hists {
		emit(name+"/count", float64(h.Count()))
		emit(name+"/mean", h.Mean())
		emit(name+"/p50", float64(h.Quantile(50)))
		emit(name+"/p99", float64(h.Quantile(99)))
		emit(name+"/max", float64(h.Max()))
	}
	for _, fn := range r.lazy {
		fn(emit)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return Snapshot{AtNs: int64(at), Metrics: ms}
}

// Get returns the value of the named metric in the snapshot (0, false
// when absent).
func (s Snapshot) Get(name string) (float64, bool) {
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Name >= name })
	if i < len(s.Metrics) && s.Metrics[i].Name == name {
		return s.Metrics[i].Value, true
	}
	return 0, false
}

// WriteJSON writes the snapshot as indented JSON. Output is
// byte-deterministic for identical snapshots.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV writes the snapshot as "name,value" rows with a header. Floats
// use strconv's shortest round-trip formatting, so identical values always
// produce identical bytes.
func (s Snapshot) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "name,value\n"); err != nil {
		return err
	}
	for _, m := range s.Metrics {
		if _, err := fmt.Fprintf(w, "%s,%s\n", m.Name, formatFloat(m.Value)); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders v in the shortest form that round-trips, the same
// rule encoding/json uses; identical bit patterns produce identical bytes.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
