package experiments

// The experiment runner: executes registry entries serially or across a
// bounded worker pool, prints their tables in registry order either way,
// and collects the per-figure performance records that cmd/falconbench
// -json writes to BENCH_*.json (the repo's perf trajectory — see DESIGN.md
// §8 and EXPERIMENTS.md's "simulator performance baseline" appendix).
// Instrumented runs (falconbench -metrics/-series, falconlake watch) go
// through the same runner with Options.Tel set.
//
// Parallelism is safe because every entry builds its own simulators:
// sim.Simulator is single-threaded by design, so experiments scale by
// running independent seeded simulators on separate goroutines, never by
// sharing one. Each entry's randomness comes from its simulators' seeded
// RNGs (no package-level rand anywhere, enforced by
// internal/testkit's TestNoGlobalRand), so tables are bit-identical
// whatever the pool width.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"falcon/internal/telemetry"
)

// FigureReport is one figure's performance record. Events counts what
// the figure's own simulators delivered, so it is exact at any pool width.
// AllocsPerEvent is a process-wide delta (runtime.MemStats.Mallocs) and is
// reported on serial runs only.
type FigureReport struct {
	Name           string  `json:"name"`
	WallMS         float64 `json:"wall_ms"`
	Events         uint64  `json:"events,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	NsPerEvent     float64 `json:"ns_per_event,omitempty"`
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`

	// Metrics is the figure's telemetry snapshot and Tel the suite it
	// came from (for series export), present only on instrumented runs.
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
	Tel     *telemetry.Suite    `json:"-"`
}

// BenchReport is the machine-readable summary of one falconbench run, the
// payload of BENCH_*.json.
type BenchReport struct {
	Schema        string         `json:"schema"`
	GoVersion     string         `json:"go"`
	NumCPU        int            `json:"cpus"`
	Quick         bool           `json:"quick"`
	Parallel      int            `json:"parallel"`
	Shards        int            `json:"shards,omitempty"`
	ShardParallel bool           `json:"shard_parallel,omitempty"`
	WallMS        float64        `json:"total_wall_ms"`
	Events        uint64         `json:"total_events"`
	EventsPerSec  float64        `json:"total_events_per_sec"`
	Figures       []FigureReport `json:"figures"`
}

// Run executes the entries under opts and prints their tables to w in
// entry order, returning the run's performance report. parallel is the
// worker-pool width; values <= 1 run serially (and additionally attribute
// allocations per figure). Output is identical for any pool width except
// for the wall-time annotations.
//
// A non-nil opts.Tel instruments the run: each figure records into a
// fresh suite of its own (opts.Tel itself is not written), and its
// FigureReport carries that suite and its snapshot. Snapshots aggregate
// many independent simulators per figure, so there is no single virtual
// timestamp to stamp; they use zero.
func Run(entries []Entry, opts Options, parallel int, w io.Writer) BenchReport {
	rep := BenchReport{
		Schema:    "falconbench/v1",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Quick:     opts.Quick,
		Parallel:  parallel,
		Figures:   make([]FigureReport, len(entries)),
	}
	if opts.Shards > 1 {
		rep.Shards = opts.Shards
		rep.ShardParallel = opts.ShardParallel
	}
	start := time.Now()
	if parallel <= 1 {
		rep.Parallel = 1
		for i, e := range entries {
			rep.Figures[i] = runOne(e, opts, w, true)
		}
	} else {
		runPool(entries, opts, parallel, w, rep.Figures)
	}
	wall := time.Since(start)
	rep.WallMS = float64(wall.Nanoseconds()) / 1e6
	for _, fr := range rep.Figures {
		rep.Events += fr.Events
	}
	if s := wall.Seconds(); s > 0 {
		rep.EventsPerSec = float64(rep.Events) / s
	}
	return rep
}

// runOne executes a single entry with its own event counter (and suite,
// when instrumented), printing its table and timing line to w. serial
// runs also attribute allocations to the figure.
func runOne(e Entry, o Options, w io.Writer, serial bool) FigureReport {
	var events atomic.Uint64
	o.events = &events
	if o.Tel != nil {
		o.Tel = telemetry.NewSuite()
	}
	var m0, m1 runtime.MemStats
	if serial {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	t := e.Run(o)
	wall := time.Since(start)
	t.Fprint(w)
	fmt.Fprintf(w, "(%s in %v)\n\n", e.Name, wall.Round(time.Millisecond))

	fr := FigureReport{Name: e.Name, WallMS: float64(wall.Nanoseconds()) / 1e6, Events: events.Load()}
	if fr.Events > 0 {
		fr.EventsPerSec = float64(fr.Events) / wall.Seconds()
		fr.NsPerEvent = float64(wall.Nanoseconds()) / float64(fr.Events)
		if serial {
			runtime.ReadMemStats(&m1)
			fr.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(fr.Events)
		}
	}
	if o.Tel != nil {
		snap := o.Tel.Snapshot(0)
		fr.Metrics, fr.Tel = &snap, o.Tel
	}
	return fr
}

// runPool fans entries across `parallel` workers. Tables are buffered per
// entry and flushed to w in registry order as soon as each prefix
// completes, so output streams progressively yet deterministically.
func runPool(entries []Entry, opts Options, parallel int, w io.Writer, figures []FigureReport) {
	if parallel > len(entries) {
		parallel = len(entries)
	}
	type slot struct {
		buf  bytes.Buffer
		done chan struct{}
	}
	slots := make([]slot, len(entries))
	for i := range slots {
		slots[i].done = make(chan struct{})
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < parallel; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				figures[i] = runOne(entries[i], opts, &slots[i].buf, false)
				close(slots[i].done)
			}
		}()
	}
	go func() {
		for i := range entries {
			jobs <- i
		}
		close(jobs)
	}()
	for i := range slots {
		<-slots[i].done
		if _, err := slots[i].buf.WriteTo(w); err != nil {
			break
		}
	}
	wg.Wait()
}
