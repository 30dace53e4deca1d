// Command bench is the repository's performance benchmark: four closed-loop
// RDMA-over-Falcon workloads, each stressing a different layer of the stack,
// measured end to end (-trace 0) or layer by layer (-trace 1). README.md in
// this directory defines every metric and workload.
//
//	go run -C bench . -workload oprate_small -seed 1 -seconds 8 -trace 0
//	go run -C bench . -compare a.jsonl b.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"falcon/internal/sim"
	"falcon/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fabric_scale, oprate_small, lossy_mixed or incast_conns")
	seed := fs.Int64("seed", 1, "seed of every input: destinations, size draws, drop and reorder decisions")
	seconds := fs.Float64("seconds", 8, "host seconds to measure for; fixes the simulated duration")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the sampled spans as Chrome trace-event JSON")
	out := fs.String("out", "", "append the result, tagged with workload and seed, to this file for -compare")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sp := findSpec(*name)
	if sp == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: bench -workload <name> [-seed n] [-seconds s] [-trace 0|1] [-trace-out file] [-out file]")
		return 2
	}
	// One simulator goroutine; the second thread is for the collector.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	dur := time.Duration(*seconds * float64(sp.simPerSecond))
	var (
		res result
		err error
	)
	if *trace == 0 {
		res, err = runEndToEnd(sp, *seed, dur, stdout)
	} else {
		res, err = runTraced(sp, *seed, dur, *traceOut, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: sp.name, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := res.writeLine(stdout); err != nil || !res.Correct {
		return 1
	}
	return 0
}

// setUp builds the workload and warms it up, timing both.
func setUp(sp *spec, seed int64, dur time.Duration, traced bool, samples []uint32) (*harness, time.Duration) {
	t0 := time.Now()
	h := newHarness(sp, seed, traced, samples)
	h.w.sim.RunUntil(sim.Time(max(dur/10, sp.minWarm)))
	return h, time.Since(t0)
}

// sampleBuffer is allocated once, before any heap baseline is taken.
func sampleBuffer(sp *spec, dur time.Duration) []uint32 {
	return make([]uint32, 0, int(float64(sp.opsPerSimMs)*dur.Seconds()*1e3*1.3)+1024)
}

// finish drains the world, checks it and prints the violations.
func finish(h *harness, win window, latP50, latP99 float64, stdout io.Writer) result {
	h.drain()
	bad := h.check(win)
	if latP99 <= latP50 {
		bad = append(bad, fmt.Sprintf("op latency p99 %v ns <= p50 %v ns: the workload is not contended", latP99, latP50))
	}
	for _, b := range bad {
		fmt.Fprintln(stdout, "INCORRECT:", b)
	}
	return result{Correct: len(bad) == 0, Attempted: h.attempted, Failed: h.attempted - h.completed}
}

// setUps is how often set-up is repeated; setup_s is the median.
var setUps = 3

func runEndToEnd(sp *spec, seed int64, dur time.Duration, stdout io.Writer) (result, error) {
	samples := sampleBuffer(sp, dur)
	var (
		h        *harness
		setupS   []float64
		baseline uint64
	)
	for i := 0; i < setUps; i++ {
		h = nil // the previous world is garbage before the baseline is read
		baseline = heapAlloc()
		var took time.Duration
		h, took = setUp(sp, seed, dur, false, samples)
		setupS = append(setupS, took.Seconds())
	}
	win := h.measure(dur)
	all, _, _ := h.latencies()
	p50, p99 := percentile(all, 50), percentile(all, 99)
	res := finish(h, win, p50, p99, stdout)
	live := heapAlloc()

	nsPerEvent := median(win.sliceNsEv)
	eventsPerOp := float64(win.events) / float64(win.ops)
	fmt.Fprintf(stdout, "workload %s seed %d: %v simulated in %v host, %d events, %d ops, %d latency samples\n",
		sp.name, seed, dur, win.wall.Round(time.Millisecond), win.events, win.ops, len(all))
	var err error
	res.Metrics, err = report(stdout, endToEnd, values{
		"setup_s":             median(setupS),
		"events_per_sec":      1e9 / nsPerEvent,
		"host_ns_per_op":      eventsPerOp * nsPerEvent,
		"events_per_op":       eventsPerOp,
		"allocs_per_op_plus1": 1 + float64(win.mallocs)/float64(win.ops),
		"heap_bytes_per_conn": float64(live-baseline) / float64(len(h.w.links)),
		"heap_live_mb":        float64(win.heapMax) / 1e6,
		"sim_goodput_gbps":    stats.Gbps(win.bytes, dur),
		"sim_op_p50_us":       p50 / 1e3,
		"sim_op_p99_us":       p99 / 1e3,
	})
	return res, err
}

func runTraced(sp *spec, seed int64, dur time.Duration, traceOut string, stdout io.Writer) (result, error) {
	samples := sampleBuffer(sp, dur)
	// Reference pass: the same workload and seed with no seam installed.
	h, _ := setUp(sp, seed, dur, false, samples)
	ref := h.measure(dur)

	h, _ = setUp(sp, seed, dur, true, samples)
	c0 := snapshot(h.w)
	uplinks0 := make([]uint64, len(h.w.uplinks))
	for i, p := range h.w.uplinks {
		uplinks0[i] = p.Stats.TxFrames
	}
	win := h.measure(dur)
	d := snapshot(h.w).sub(c0)
	spread := uplinkSpreadPct(h.w.uplinks, uplinks0)
	all, writes, reads := h.latencies()
	res := finish(h, win, percentile(all, 50), percentile(all, 99), stdout)
	if win.events != ref.events || win.ops != ref.ops || win.bytes != ref.bytes {
		fmt.Fprintf(stdout, "INCORRECT: the traced pass diverged from the untraced one: events %d vs %d, ops %d vs %d\n",
			win.events, ref.events, win.ops, ref.ops)
		res.Correct = false
	}
	fmt.Fprintf(stdout, "workload %s seed %d traced: %v simulated in %v host (%v untraced), %d spans kept, %d dropped\n",
		sp.name, seed, dur, win.wall.Round(time.Millisecond), ref.wall.Round(time.Millisecond), len(h.tr.spans), h.tr.dropped)
	var err error
	if res.Metrics, err = report(stdout, perLayer, layerValues(h, ref, win, d, spread, writes, reads)); err != nil {
		return res, err
	}
	if traceOut != "" {
		err = h.tr.writeChrome(traceOut)
	}
	return res, err
}
