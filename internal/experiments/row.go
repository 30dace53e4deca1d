package experiments

import (
	"time"

	"falcon/internal/chaos"
	"falcon/internal/sim"
	"falcon/internal/telemetry"
)

// row is one independent run inside a figure: one cell of its table, or
// the few cells a run measures together. It owns the run's simulator,
// seeded here and counting its events into the figure's total, and its
// metric path, <fig>/<name>, under which every instrument it registers
// goes. The builders figures use take the row, so a setting the row
// carries reaches every run of every figure.
type row struct {
	s    *sim.Simulator
	path string
	// reg is the figure's metric registry when the run is instrumented
	// (Options.Tel), else nil.
	reg *telemetry.Registry
	tel *telemetry.Suite
}

// row returns a fresh row named name whose simulator is seeded with seed.
func (o Options) row(name string, seed int64) *row {
	s := sim.New(seed)
	s.CountInto(o.events)
	r := &row{s: s, path: o.fig + "/" + name, tel: o.Tel}
	if o.Tel != nil {
		r.reg = o.Tel.Registry()
	}
	return r
}

// series records a time series named name on an instrumented run: track
// registers its columns, and the sampler ticks every 20 µs of virtual
// time until runFor. The name becomes the CSV file name, so it is short
// and unique within the figure, not a path.
func (r *row) series(name string, runFor time.Duration, track func(*telemetry.Sampler)) {
	if r.tel == nil {
		return
	}
	sp := r.tel.Sampler(name, r.s, 20*time.Microsecond)
	track(sp)
	sp.Start(sim.Time(runFor))
}

// chaos registers a copy of a drained storm run's report under the row's
// path on an instrumented run.
func (r *row) chaos(rep chaos.Report) {
	if r.reg != nil {
		telemetry.CollectChaos(r.reg, r.path, &rep)
	}
}
