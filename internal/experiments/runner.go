package experiments

// The experiment runner: executes registry entries serially or across a
// bounded worker pool, prints their tables in registry order either way,
// and annotates each table with its wall time and event count. Simulator
// performance is measured by the bench module alone (DESIGN.md §8).
// Instrumented runs (falconbench -metrics/-series) go through the same
// runner with Options.Tel set.
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
	"sync"
	"sync/atomic"
	"time"

	"falcon/internal/telemetry"
)

// FigureReport is one figure's record of a run. Events counts what the
// figure's own simulators delivered, so it is exact at any pool width.
type FigureReport struct {
	Name   string
	Events uint64

	// Metrics is the figure's telemetry snapshot and Tel the suite it
	// came from (for series export), present only on instrumented runs.
	Metrics *telemetry.Snapshot
	Tel     *telemetry.Suite
}

// Run executes the entries under opts and prints their tables to w in
// entry order, returning one report per entry in the same order. parallel
// is the worker-pool width; values <= 1 run serially. Output is identical
// for any pool width except for the wall-time annotations.
//
// A non-nil opts.Tel instruments the run: each figure records into a
// fresh suite of its own (opts.Tel itself is not written), and its
// FigureReport carries that suite and its snapshot. Snapshots aggregate
// many independent simulators per figure, so there is no single virtual
// timestamp to stamp; they use zero.
func Run(entries []Entry, opts Options, parallel int, w io.Writer) []FigureReport {
	figures := make([]FigureReport, len(entries))
	if parallel <= 1 {
		for i, e := range entries {
			figures[i] = runOne(e, opts, w)
		}
	} else {
		runPool(entries, opts, parallel, w, figures)
	}
	return figures
}

// runOne executes a single entry with its own event counter (and suite,
// when instrumented), printing its table and annotation line to w.
func runOne(e Entry, o Options, w io.Writer) FigureReport {
	var events atomic.Uint64
	o.events = &events
	if o.Tel != nil {
		o.Tel = telemetry.NewSuite()
	}
	start := time.Now()
	t := e.Run(o)
	wall := time.Since(start)
	fr := FigureReport{Name: e.Name, Events: events.Load()}
	t.Fprint(w)
	fmt.Fprintf(w, "(%s in %v, %d events)\n\n", e.Name, wall.Round(time.Millisecond), fr.Events)
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
				figures[i] = runOne(entries[i], opts, &slots[i].buf)
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
