package telemetry

import (
	"fmt"
	"io"
	"time"

	"falcon/internal/sim"
)

// Sampler records a time series by scheduling periodic snapshot events on
// the simulator. Each tick evaluates every tracked probe function and
// appends one row; ticks are ordinary sim events, so they interleave
// deterministically with protocol activity and two same-seed runs produce
// identical series.
//
// Because ticks occupy (time, seq) slots in the schedule, attaching a
// sampler changes the run's trace hash — unlike counters, which observe
// passively. That is the telemetry determinism
// contract (DESIGN.md §9): enabled sampling may shift event sequence
// numbers but must not change protocol behaviour, and the exported series
// itself must be byte-reproducible.
type Sampler struct {
	sim      *sim.Simulator
	interval time.Duration

	names  []string
	probes []func() float64

	times []sim.Time
	rows  [][]float64

	timer   sim.Timer
	started bool
}

// NewSampler creates a sampler ticking every interval (minimum 1µs to
// keep a runaway sampler from flooding the schedule).
func NewSampler(s *sim.Simulator, interval time.Duration) *Sampler {
	if interval < time.Microsecond {
		interval = time.Microsecond
	}
	return &Sampler{sim: s, interval: interval}
}

// Track registers a named probe evaluated at every tick. All tracks must
// be registered before Start.
func (sp *Sampler) Track(name string, fn func() float64) {
	sp.names = append(sp.names, name)
	sp.probes = append(sp.probes, fn)
}

// Start samples immediately and then every interval until the virtual
// clock reaches until.
func (sp *Sampler) Start(until sim.Time) {
	if sp.started {
		return
	}
	sp.started = true
	sp.tick(until)
}

func (sp *Sampler) tick(until sim.Time) {
	now := sp.sim.Now()
	sp.times = append(sp.times, now)
	row := make([]float64, len(sp.probes))
	for i, fn := range sp.probes {
		row[i] = fn()
	}
	sp.rows = append(sp.rows, row)
	next := now.Add(sp.interval)
	if next > until {
		return
	}
	sp.timer = sp.sim.At(next, func() { sp.tick(until) })
}

// Stop cancels any pending tick.
func (sp *Sampler) Stop() {
	sp.timer.Stop()
}

// Len returns the number of rows sampled so far.
func (sp *Sampler) Len() int { return len(sp.rows) }

// Names returns the tracked series names in registration order.
func (sp *Sampler) Names() []string { return sp.names }

// Row returns the timestamp and values of row i.
func (sp *Sampler) Row(i int) (sim.Time, []float64) { return sp.times[i], sp.rows[i] }

// WriteCSV writes the series as CSV: a t_ns column followed by one column
// per track, floats in shortest round-trip form. Byte-deterministic for
// identical samples.
func (sp *Sampler) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "t_ns"); err != nil {
		return err
	}
	for _, n := range sp.names {
		if _, err := fmt.Fprintf(w, ",%s", n); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for i, t := range sp.times {
		if _, err := fmt.Fprintf(w, "%d", int64(t)); err != nil {
			return err
		}
		for _, v := range sp.rows[i] {
			if _, err := fmt.Fprintf(w, ",%s", formatFloat(v)); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
