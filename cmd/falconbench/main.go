// falconbench regenerates every table and figure of the paper's evaluation
// (§6 and Appendix B) from the simulator and prints them as tables.
//
// Usage:
//
//	falconbench -list                  # show available experiments
//	falconbench -run fig10             # run one experiment
//	falconbench -run 'fig2.*'          # run experiments matching a regex
//	falconbench                        # run everything (several minutes)
//	falconbench -quick                 # shorter measurement windows
//	falconbench -quick -parallel 8     # fan experiments across 8 workers
//	falconbench -json BENCH_pr2.json   # also write a machine-readable
//	                                   # performance report (events/sec,
//	                                   # ns/event, allocs/event, wall time
//	                                   # per figure)
//	falconbench -quick -run 'fig10|fig13|fig15' \
//	    -metrics BENCH_pr3_metrics.json \
//	    -series BENCH_pr3_series       # instrumented run: deterministic
//	                                   # per-figure metric snapshots plus
//	                                   # virtual-clock time-series CSVs
//	                                   # (byte-identical across same-seed
//	                                   # runs; forces serial execution)
//	falconbench -routing spray         # run every fabric under a non-default
//	                                   # uplink policy (ecmp, spray, adaptive);
//	                                   # same-seed reruns stay byte-identical
//	                                   # per policy, but non-ecmp tables
//	                                   # legitimately differ from committed
//	                                   # baselines
//	falconbench -storm 71              # run the storm figures under one
//	                                   # campaign seed; with no -run the
//	                                   # selection defaults to the storm
//	                                   # figures. Two invocations with the
//	                                   # same seed write byte-identical
//	                                   # -metrics JSON (make check relies
//	                                   # on this)
//	falconbench -shards 4              # partition every simulator into 4
//	                                   # per-partition event loops with a
//	                                   # deterministic merge; tables must
//	                                   # be identical to -shards 1
//	                                   # (make check relies on this)
//	falconbench -shards 4 -shardpar    # experimental: execute partitions
//	                                   # on concurrent goroutines under
//	                                   # conservative lookahead windows
//	falconbench -cpuprofile cpu.pprof  # pprof profiles of the run
//	falconbench -memprofile mem.pprof
//
// Experiments build independent seeded simulators, so -parallel changes
// wall time but never a table cell; output stays in registry order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"

	"falcon/internal/experiments"
	"falcon/internal/netsim"
	"falcon/internal/routing"
	"falcon/internal/sim"
	"falcon/internal/telemetry"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "regex of experiment names to run (default: all)")
	quick := flag.Bool("quick", false, "shorter measurement windows")
	parallel := flag.Int("parallel", 1, "worker pool width (independent simulators per goroutine)")
	jsonPath := flag.String("json", "", "write a BENCH_*.json performance report to this file")
	metricsPath := flag.String("metrics", "", "write a deterministic per-figure metrics JSON to this file (forces a serial instrumented run)")
	seriesDir := flag.String("series", "", "write per-figure time-series CSVs into this directory (forces a serial instrumented run)")
	shards := flag.Int("shards", 1, "partition every simulator into N per-partition event loops (deterministic merge; tables must be identical to -shards 1)")
	shardPar := flag.Bool("shardpar", false, "experimental: run partitions on concurrent goroutines under conservative lookahead windows (self-deterministic, but not byte-comparable to the merged mode)")
	routingPolicy := flag.String("routing", "ecmp", "fabric uplink policy for every topology: ecmp (default), spray, or adaptive")
	storm := flag.Int64("storm", 0, "override the storm campaign seed for figStorm/figEndpointFault; with no -run, selects just the storm figures")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.Name, e.Desc)
		}
		return
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "bad -shards %d: want >= 1\n", *shards)
		os.Exit(2)
	}
	sim.SetDefaultShards(*shards)
	sim.SetDefaultShardParallel(*shardPar)
	pol := routing.ByName(*routingPolicy)
	if pol == nil {
		fmt.Fprintf(os.Stderr, "bad -routing %q: want ecmp, spray or adaptive\n", *routingPolicy)
		os.Exit(2)
	}
	netsim.SetDefaultPolicy(pol)
	if *storm != 0 {
		experiments.SetStormSeed(*storm)
		if *run == "" {
			*run = "figStorm|figEndpointFault"
		}
	}
	if *shardPar {
		// The windowed-parallel mode executes partitions on concurrent
		// goroutines, so only figures built with partition-local
		// accumulation may run under it; the merged mode (-shards without
		// -shardpar) is safe — and byte-identical — for every figure.
		if *run == "" {
			*run = "figScale"
		}
		fmt.Fprintln(os.Stderr, "note: -shardpar is experimental; selection defaults to figScale (partition-local accumulation)")
	}
	var re *regexp.Regexp
	if *run != "" {
		var err error
		re, err = regexp.Compile("^(" + *run + ")$")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -run regex: %v\n", err)
			os.Exit(2)
		}
	}
	var matched []experiments.Entry
	for _, e := range experiments.Registry() {
		if re == nil || re.MatchString(e.Name) {
			matched = append(matched, e)
		}
	}
	if len(matched) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches %q; try -list\n", *run)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var rep experiments.BenchReport
	if *metricsPath != "" || *seriesDir != "" {
		var suites []*telemetry.Suite
		rep, suites = experiments.RunInstrumented(matched, *quick, os.Stdout)
		if *metricsPath != "" {
			m := experiments.NewMetricsReport(rep)
			f, err := os.Create(*metricsPath)
			if err == nil {
				err = m.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
				os.Exit(1)
			}
		}
		if *seriesDir != "" {
			for i, tel := range suites {
				paths, err := tel.WriteSeries(*seriesDir, matched[i].Name)
				if err != nil {
					fmt.Fprintf(os.Stderr, "series: %v\n", err)
					os.Exit(1)
				}
				for _, p := range paths {
					fmt.Printf("wrote %s\n", p)
				}
			}
		}
	} else {
		rep = experiments.Run(matched, *quick, *parallel, os.Stdout)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
	}
}
