package experiments

// The experiment runner: executes registry entries serially or across a
// bounded worker pool, prints their tables in registry order either way,
// and collects the per-figure performance records that cmd/falconbench
// -json writes to BENCH_*.json (the repo's perf trajectory — see DESIGN.md
// §8 and EXPERIMENTS.md's PR2 appendix).
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
	"time"

	"falcon/internal/sim"
	"falcon/internal/telemetry"
)

// FigureReport is one figure's performance record.
//
// Events and the derived rates are attributed per figure only on serial
// runs: the process-wide event counter cannot be split by goroutine, so a
// parallel run reports them as zero and only the aggregate totals in
// BenchReport are meaningful. AllocsPerEvent is likewise a process-wide
// delta (runtime.MemStats.Mallocs) and is reported serially only.
type FigureReport struct {
	Name           string  `json:"name"`
	WallMS         float64 `json:"wall_ms"`
	Events         uint64  `json:"events,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	NsPerEvent     float64 `json:"ns_per_event,omitempty"`
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`

	// Metrics is the figure's telemetry snapshot, present only on
	// instrumented runs (RunInstrumented / falconbench -metrics).
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
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

// Run executes the entries and prints their tables to w in entry order,
// returning the run's performance report. parallel is the worker-pool
// width; values <= 1 run serially (and additionally attribute events and
// allocations per figure). Output is identical for any pool width except
// for the wall-time annotations.
func Run(entries []Entry, quick bool, parallel int, w io.Writer) BenchReport {
	rep := BenchReport{
		Schema:    "falconbench/v1",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Quick:     quick,
		Parallel:  parallel,
		Figures:   make([]FigureReport, len(entries)),
	}
	if n := sim.DefaultShards(); n > 1 {
		rep.Shards = n
		rep.ShardParallel = sim.DefaultShardParallel()
	}
	start := time.Now()
	events0 := sim.TotalDelivered()
	if parallel <= 1 {
		rep.Parallel = 1
		for i, e := range entries {
			rep.Figures[i] = runOne(e, quick, w, true)
		}
	} else {
		runPool(entries, quick, parallel, w, rep.Figures)
	}
	wall := time.Since(start)
	rep.WallMS = float64(wall.Nanoseconds()) / 1e6
	rep.Events = sim.TotalDelivered() - events0
	if s := wall.Seconds(); s > 0 {
		rep.EventsPerSec = float64(rep.Events) / s
	}
	return rep
}

// runOne executes a single entry, printing its table and timing line to w.
// When measure is set (serial runs only), it attributes delivered events
// and allocations to the figure.
func runOne(e Entry, quick bool, w io.Writer, measure bool) FigureReport {
	return runFigure(e.Name, func() *Table { return e.Run(quick) }, w, measure)
}

// runFigure is the shared body of runOne and the instrumented runner:
// time one table-producing function, print its table, and (optionally)
// attribute events and allocations.
func runFigure(name string, run func() *Table, w io.Writer, measure bool) FigureReport {
	var m0, m1 runtime.MemStats
	var ev0 uint64
	if measure {
		runtime.ReadMemStats(&m0)
		ev0 = sim.TotalDelivered()
	}
	start := time.Now()
	t := run()
	wall := time.Since(start)
	t.Fprint(w)
	fmt.Fprintf(w, "(%s in %v)\n\n", name, wall.Round(time.Millisecond))

	fr := FigureReport{Name: name, WallMS: float64(wall.Nanoseconds()) / 1e6}
	if measure {
		runtime.ReadMemStats(&m1)
		fr.Events = sim.TotalDelivered() - ev0
		if fr.Events > 0 {
			fr.EventsPerSec = float64(fr.Events) / wall.Seconds()
			fr.NsPerEvent = float64(wall.Nanoseconds()) / float64(fr.Events)
			fr.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(fr.Events)
		}
	}
	return fr
}

// runPool fans entries across `parallel` workers. Tables are buffered per
// entry and flushed to w in registry order as soon as each prefix
// completes, so output streams progressively yet deterministically.
func runPool(entries []Entry, quick bool, parallel int, w io.Writer, figures []FigureReport) {
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
				figures[i] = runOne(entries[i], quick, &slots[i].buf, false)
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
