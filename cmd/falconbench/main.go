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
//	falconbench -quick -run 'fig10|fig13|fig15' \
//	    -metrics BENCH_pr3_metrics.json \
//	    -series BENCH_pr3_series       # instrumented run: deterministic
//	                                   # per-figure metric snapshots plus
//	                                   # virtual-clock time-series CSVs
//	                                   # (byte-identical across same-seed
//	                                   # runs and pool widths)
//	falconbench -storm 71              # run the storm figures under one
//	                                   # campaign seed; with no -run the
//	                                   # selection defaults to the storm
//	                                   # figures. Two invocations with the
//	                                   # same seed write byte-identical
//	                                   # -metrics JSON (make check relies
//	                                   # on this)
//	falconbench -cpuprofile cpu.pprof  # pprof profiles of the run
//	falconbench -memprofile mem.pprof
//
// The flags become one experiments.Options that every figure receives;
// nothing is configured process-wide. Experiments build independent
// seeded simulators, so -parallel changes wall time but never a table
// cell; output stays in registry order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"

	"falcon/internal/experiments"
	"falcon/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the process exit status (1 for a
// failed run, 2 for a bad invocation).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("falconbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments and exit")
	runRe := fs.String("run", "", "regex of experiment names to run (default: all)")
	quick := fs.Bool("quick", false, "shorter measurement windows")
	parallel := fs.Int("parallel", 1, "worker pool width (independent simulators per goroutine)")
	metricsPath := fs.String("metrics", "", "write a deterministic per-figure metrics JSON to this file (instrumented run)")
	seriesDir := fs.String("series", "", "write per-figure time-series CSVs into this directory (instrumented run)")
	storm := fs.Int64("storm", 0, "override the storm campaign seed for figStorm/figEndpointFault; with no -run, selects just the storm figures")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.Name, e.Desc)
		}
		return 0
	}
	opts := experiments.Options{Quick: *quick, StormSeed: *storm}
	if *metricsPath != "" || *seriesDir != "" {
		opts.Tel = telemetry.NewSuite()
	}
	if *runRe == "" && *storm != 0 {
		*runRe = "figStorm|figEndpointFault"
	}
	var re *regexp.Regexp
	if *runRe != "" {
		var err error
		re, err = regexp.Compile("^(" + *runRe + ")$")
		if err != nil {
			fmt.Fprintf(stderr, "bad -run regex: %v\n", err)
			return 2
		}
	}
	var matched []experiments.Entry
	for _, e := range experiments.Registry() {
		if re == nil || re.MatchString(e.Name) {
			matched = append(matched, e)
		}
	}
	if len(matched) == 0 {
		fmt.Fprintf(stderr, "no experiment matches %q; try -list\n", *runRe)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	figures := experiments.Run(matched, opts, *parallel, stdout)
	if *metricsPath != "" {
		m := experiments.NewMetricsReport(figures, opts.Quick)
		f, err := os.Create(*metricsPath)
		if err == nil {
			err = m.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "metrics: %v\n", err)
			return 1
		}
	}
	if *seriesDir != "" {
		for _, fr := range figures {
			paths, err := fr.Tel.WriteSeries(*seriesDir, fr.Name)
			if err != nil {
				fmt.Fprintf(stderr, "series: %v\n", err)
				return 1
			}
			for _, p := range paths {
				fmt.Fprintf(stdout, "wrote %s\n", p)
			}
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}
