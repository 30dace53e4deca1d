// falconlake is the CLI over the telemetry lake (internal/lake): it
// indexes the deterministic artifacts falconbench emits, serves queries
// over them, and diffs runs cell-by-cell to flag behavior and
// performance regressions.
//
// Usage (every ARTIFACT is a falconmetrics/v1 JSON, a bench -out .jsonl
// file of untraced records, a series CSV, or a directory of series CSVs;
// the index is built in memory on each invocation):
//
//	falconlake list [run=]ARTIFACT...
//	    Show the runs with their schemas, cell and series counts. An
//	    optional "run=" prefix names an artifact's run (default:
//	    derived from the file name, so BENCH_pr3_metrics.json lands in
//	    run "pr3"); repeating a run name merges artifacts into one run.
//
//	falconlake query [-run pr3] [-summary] PATTERN [run=]ARTIFACT...
//	    Print cells matching a segment-glob pattern ("*" = one
//	    segment, "**" = any number), sorted by path; -summary prints
//	    count/mean/min/max/p50/p99 over the selection instead. -run may
//	    be omitted when the artifacts form one run.
//
//	falconlake query [-run pr3] -serie fig10_write_drop1 \
//	    -col conn/fcwnd [-from ns] [-to ns] [-summary] [run=]ARTIFACT...
//	    Print (t_ns, value) rows of one time-series column, or its
//	    summary; without -col, list the series' columns.
//
//	falconlake watch [-json] [-keep path] [-figure glob] baseline.json
//	    Regenerate the baseline's figures in-process (same figure set,
//	    same quick flag, instrumented run) and diff the fresh artifact
//	    against the committed baseline. Exits 1 when findings exist —
//	    the one-command drift check for a working tree:
//	    `falconlake watch BENCH_pr8_metrics.json` answers "did my edit
//	    change any committed metric?" without leaving temp files
//	    around. -keep writes the regenerated artifact to a path for
//	    inspection (or for promoting it to the new baseline).
//
//	falconlake trend [-json] ARTIFACT1 ARTIFACT2 ARTIFACT3...
//	    Scan three or more artifacts (oldest first) for metrics drifting
//	    monotonically across the whole sequence. Pairwise diffing
//	    forgives a slow creep — a perf metric regressing 5% per run
//	    never trips the 8% set band — so the trend scan flags monotonic
//	    chains whose cumulative first-to-last drift exceeds the (much
//	    tighter) trend tolerances: timing-class beyond 5%, perf-class
//	    beyond 10% in the metric's worse direction. Exact-class
//	    cells are skipped (any change there is already a diff finding).
//	    Exits 1 when drifts exist.
//
//	falconlake diff [-json] ARTIFACT_A ARTIFACT_B
//	    Compare artifact B against baseline A. Exact-class metrics must
//	    match bit-for-bit; timing-class metrics get a ±5% band; perf
//	    metrics are judged per (workload, metric) over the seed set,
//	    flagged when the median per-seed ratio is more than 8% worse and
//	    at least 70% of the seeds are worse. Exits 1 when findings
//	    exist, so the diff gates CI directly: `make check` diffs every
//	    committed BENCH_prN_before.jsonl against its _after.jsonl
//	    (events_per_op, sim_*, attempted, failed and correct exact per
//	    seed; host-measured metrics perf).
//
// See METRICS.md for the metric-name grammar and the per-metric
// determinism classes the differ applies, and EXPERIMENTS.md (PR7
// appendix) for the regression-check workflow.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"falcon/internal/lake"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		cmdList(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "trend":
		cmdTrend(os.Args[2:])
	case "watch":
		cmdWatch(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "falconlake: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `falconlake — telemetry lake over falconbench artifacts

  falconlake list   [run=]ARTIFACT...
  falconlake query  [-run NAME] [-summary] PATTERN [run=]ARTIFACT...
  falconlake query  [-run NAME] -serie NAME [-col COL] [-from NS] [-to NS] [-summary] [run=]ARTIFACT...
  falconlake diff   [-json] ARTIFACT_A ARTIFACT_B
  falconlake trend  [-json] ARTIFACT1 ARTIFACT2 ARTIFACT3...
  falconlake watch  [-json] [-keep PATH] [-figure GLOB] BASELINE.json

See 'go doc falcon/cmd/falconlake' and METRICS.md for details.
`)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "falconlake: %v\n", err)
	os.Exit(1)
}

// report is what diff, trend and watch print.
type report interface {
	WriteText(io.Writer) error
	WriteJSON(io.Writer) error
	Empty() bool
}

// emit prints the report as text or JSON and exits 1 when it has
// findings.
func emit(rep report, jsonOut bool) {
	var err error
	if jsonOut {
		err = rep.WriteJSON(os.Stdout)
	} else {
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	if !rep.Empty() {
		os.Exit(1)
	}
}

// buildIndex ingests the artifacts into an in-memory index, returning it
// with the run each artifact landed in; run names the i-th one.
func buildIndex(args []string, run func(i int, arg string) (name, path string)) (*lake.Index, []string) {
	ix := &lake.Index{}
	runs := make([]string, len(args))
	for i, arg := range args {
		name, path := run(i, arg)
		if err := ix.IngestFile(name, path); err != nil {
			fatal(err)
		}
		runs[i] = name
	}
	return ix, runs
}

// namedRuns names runs by an optional "run=" prefix (see splitRunArg).
func namedRuns(_ int, arg string) (string, string) { return splitRunArg(arg) }

// numberedRuns names the i-th artifact's run r<i+1>, for diff and trend.
func numberedRuns(i int, arg string) (string, string) { return fmt.Sprintf("r%d", i+1), arg }

// splitRunArg splits an optional "run=" prefix off an artifact path.
// Anything containing a path separator or a dot before the '=' is
// treated as a bare path (so "dir=x/file.json" names a run while
// "./weird=name.json" does not).
func splitRunArg(arg string) (run, path string) {
	if i := strings.IndexByte(arg, '='); i > 0 {
		prefix := arg[:i]
		if !strings.ContainsAny(prefix, "/\\.") {
			return prefix, arg[i+1:]
		}
	}
	return lake.DeriveRunName(arg), arg
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "falconlake list: need at least one artifact path")
		os.Exit(2)
	}
	ix, _ := buildIndex(fs.Args(), namedRuns)
	for _, r := range ix.Runs() {
		quick := ""
		if r.Quick {
			quick = " quick"
		}
		fmt.Printf("%-8s %6d cells  %d series%s  [%s]  %s\n",
			r.Name, len(r.Cells), len(r.Series), quick,
			strings.Join(r.Schemas, " "), strings.Join(r.Sources, ", "))
	}
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	run := fs.String("run", "", "run to query (default: the only run; see 'falconlake list')")
	summary := fs.Bool("summary", false, "print count/mean/min/max/p50/p99 over the selection")
	serie := fs.String("serie", "", "query a time series of this name instead of metric cells")
	col := fs.String("col", "", "series column (with -serie)")
	from := fs.Int64("from", 0, "series slice start, virtual ns (with -serie)")
	to := fs.Int64("to", -1, "series slice end, virtual ns, -1 = end (with -serie)")
	fs.Parse(args)
	paths := fs.Args()
	var pattern string
	if *serie == "" && len(paths) > 0 {
		pattern, paths = paths[0], paths[1:]
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "falconlake query: need a PATTERN (or -serie) and at least one artifact path")
		os.Exit(2)
	}
	ix, _ := buildIndex(paths, namedRuns)
	if *run == "" {
		if len(ix.Runs()) != 1 {
			fmt.Fprintf(os.Stderr, "falconlake query: %d runs, pick one with -run\n", len(ix.Runs()))
			os.Exit(2)
		}
		*run = ix.Runs()[0].Name
	}

	if *serie != "" {
		if *col == "" {
			// No column: list the series' columns.
			s := ix.FindSeries(*run, *serie)
			if s == nil {
				fatal(fmt.Errorf("series %q not in run %q (have: %s)",
					*serie, *run, strings.Join(ix.SeriesNames(*run), ", ")))
			}
			fmt.Printf("series %s: %d rows, columns: %s\n",
				*serie, len(s.Times), strings.Join(s.Columns, ", "))
			return
		}
		if *summary {
			s, ok := ix.SeriesSummary(*run, *serie, *col)
			if !ok {
				fatal(fmt.Errorf("series %q column %q not in run %q", *serie, *col, *run))
			}
			printSummary(s)
			return
		}
		ts, vs, ok := ix.SeriesSlice(*run, *serie, *col, *from, *to)
		if !ok {
			fatal(fmt.Errorf("series %q column %q not in run %q", *serie, *col, *run))
		}
		fmt.Printf("t_ns,%s\n", *col)
		for i, t := range ts {
			fmt.Printf("%d,%s\n", t, formatVal(vs[i]))
		}
		return
	}

	if *summary {
		printSummary(ix.Summary(*run, pattern))
		return
	}
	cells := ix.Select(*run, pattern)
	for _, c := range cells {
		fmt.Printf("%s %s\n", c.Path, formatVal(c.Value))
	}
	if len(cells) == 0 {
		fmt.Fprintf(os.Stderr, "no cells match %q in run %q\n", pattern, *run)
		os.Exit(1)
	}
}

func printSummary(s lake.Summary) {
	fmt.Printf("count %d\nmean %s\nmin %s\nmax %s\np50 %s\np99 %s\n",
		s.Count, formatVal(s.Mean), formatVal(s.Min), formatVal(s.Max),
		formatVal(s.P50), formatVal(s.P99))
}

// formatVal matches the artifacts' shortest-round-trip float form.
func formatVal(v float64) string {
	return fmt.Sprintf("%v", v)
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "falconlake diff: need exactly two artifact paths")
		os.Exit(2)
	}
	ix, runs := buildIndex(fs.Args(), numberedRuns)
	rep, err := lake.Diff(ix, runs[0], runs[1])
	if err != nil {
		fatal(err)
	}
	emit(rep, *jsonOut)
}

func cmdTrend(args []string) {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	fs.Parse(args)
	if fs.NArg() < 3 {
		fmt.Fprintln(os.Stderr, "falconlake trend: need at least three artifact paths, oldest first")
		os.Exit(2)
	}
	ix, runs := buildIndex(fs.Args(), numberedRuns)
	rep, err := lake.Trend(ix, runs)
	if err != nil {
		fatal(err)
	}
	emit(rep, *jsonOut)
}
