package experiments

import (
	"sync/atomic"
	"time"

	"falcon/internal/telemetry"
)

// Options is everything that configures one run of a figure. The zero
// value is a full-window, uninstrumented run with the default storm seeds.
//
// Figures build every run through Options.row (row.go), so each setting
// reaches all of them and nothing else: there is no process-wide default
// to set or restore, and figures with different options may run side by
// side.
type Options struct {
	// Quick selects the shorter measurement windows.
	Quick bool
	// Tel, when non-nil, receives the figure's metrics and time series.
	// Telemetry only observes, so the table is the same either way.
	Tel *telemetry.Suite
	// StormSeed, when non-zero, narrows the storm campaigns to this one
	// seed instead of the default set.
	StormSeed int64
	// events, set by the runner, totals the events delivered by every
	// simulator the figure builds.
	events *atomic.Uint64
	// fig, set by the runner, is the figure's name: the first element of
	// every row's metric path.
	fig string
}

// window returns the measurement duration for a full or a quick run.
func (o Options) window(full, quick time.Duration) time.Duration {
	if o.Quick {
		return quick
	}
	return full
}

// stormSeeds returns the storm campaigns' seeds: StormSeed when set, else
// the committed default trio.
func (o Options) stormSeeds() []int64 {
	if o.StormSeed != 0 {
		return []int64{o.StormSeed}
	}
	return []int64{71, 72, 73}
}
