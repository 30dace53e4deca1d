// falconlake is the CLI over the telemetry lake (internal/lake): it
// ingests the deterministic artifacts falconbench emits into a compact
// columnar index, serves queries over it, and diffs runs cell-by-cell
// to flag behavior and performance regressions.
//
// Usage:
//
//	falconlake ingest -out lake.idx [run=]path...
//	    Ingest artifacts into a new index file. Each argument is a
//	    falconmetrics/v1 JSON, a falconbench/v1 JSON, a series CSV, or
//	    a directory of series CSVs; an optional "run=" prefix names
//	    the run (default: derived from the file name, so
//	    BENCH_pr3_metrics.json lands in run "pr3"). Repeating a run
//	    name merges artifacts into one run. Ingestion is
//	    deterministic: the same artifacts produce a byte-identical
//	    index file.
//
//	falconlake list -index lake.idx
//	    Show the ingested runs with their schemas, cell and series
//	    counts.
//
//	falconlake query -index lake.idx -run pr3 [-summary] pattern
//	    Print cells matching a segment-glob pattern ("*" = one
//	    segment, "**" = any number), sorted by path; -summary prints
//	    count/mean/min/max/p50/p99 over the selection instead.
//
//	falconlake query -index lake.idx -run pr3 -serie fig10_write_drop1 \
//	    -col conn/fcwnd [-from ns] [-to ns] [-summary]
//	    Print (t_ns, value) rows of one time-series column, or its
//	    summary.
//
//	falconlake watch [-tol 0.05] [-perftol 0.25] [-json] [-keep path] \
//	    baseline.json
//	    Regenerate the baseline's figures in-process (same figure set,
//	    same quick flag, serial instrumented run) and diff the fresh
//	    artifact against the committed baseline. Exits 1 when findings
//	    exist — the one-command drift check for a working tree:
//	    `falconlake watch BENCH_pr8_metrics.json` answers "did my edit
//	    change any committed metric?" without leaving temp files
//	    around. -keep writes the regenerated artifact to a path for
//	    inspection (or for promoting it to the new baseline).
//
//	falconlake trend -index lake.idx [-tol 0.05] [-perftol 0.10] \
//	    [-json] run1 run2 run3...
//	    Scan three or more runs (oldest first) for metrics drifting
//	    monotonically across the whole sequence. Pairwise diffing
//	    forgives a slow creep — a perf metric regressing 8% per run
//	    never trips the 25% band — so the trend scan flags monotonic
//	    chains whose cumulative first-to-last drift exceeds the (much
//	    tighter) trend tolerances: timing-class beyond -tol, perf-class
//	    beyond -perftol in the metric's worse direction. Exact-class
//	    cells are skipped (any change there is already a diff finding).
//	    The arguments may also all be artifact paths, ingested in order
//	    as r1, r2, ... Exits 1 when drifts exist.
//
//	falconlake diff -index lake.idx [-tol 0.05] [-perftol 0.25] \
//	    [-json] runA runB
//	    Compare runB against baseline runA. Exact-class metrics must
//	    match bit-for-bit; timing-class metrics get the -tol band;
//	    perf metrics are flagged only for regressions beyond
//	    -perftol. Exits 1 when findings exist, so the diff gates CI
//	    directly (`make check` asserts a self-diff is empty).
//	    The two arguments may also be artifact paths, which are
//	    ingested into an ephemeral index ("a" and "b") and compared
//	    without touching -index.
//
// See METRICS.md for the metric-name grammar and the per-metric
// determinism classes the differ applies, and EXPERIMENTS.md (PR7
// appendix) for the regression-check workflow.
package main

import (
	"flag"
	"fmt"
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
	case "ingest":
		cmdIngest(os.Args[2:])
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

  falconlake ingest -out lake.idx [run=]path...
  falconlake list   -index lake.idx
  falconlake query  -index lake.idx -run NAME [-summary] PATTERN
  falconlake query  -index lake.idx -run NAME -serie NAME -col COL [-from NS] [-to NS] [-summary]
  falconlake diff   -index lake.idx [-tol F] [-perftol F] [-json] RUN_A RUN_B
  falconlake diff   [-tol F] [-perftol F] [-json] ARTIFACT_A ARTIFACT_B
  falconlake trend  -index lake.idx [-tol F] [-perftol F] [-json] RUN1 RUN2 RUN3...
  falconlake trend  [-tol F] [-perftol F] [-json] ARTIFACT1 ARTIFACT2 ARTIFACT3...
  falconlake watch  [-tol F] [-perftol F] [-json] [-keep PATH] BASELINE.json

See 'go doc falcon/cmd/falconlake' and METRICS.md for details.
`)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "falconlake: %v\n", err)
	os.Exit(1)
}

func cmdIngest(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	out := fs.String("out", "", "output index file (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "falconlake ingest: need -out and at least one artifact path")
		os.Exit(2)
	}
	b := lake.NewBuilder()
	for _, arg := range fs.Args() {
		run, path := splitRunArg(arg)
		if err := b.IngestFile(run, path); err != nil {
			fatal(err)
		}
	}
	ix, err := b.Seal()
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	werr := ix.Encode(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fatal(werr)
	}
	for _, r := range ix.Runs() {
		fmt.Printf("run %s: %s\n", r.Name, strings.Join(r.Sources, ", "))
	}
	fmt.Printf("wrote %s: %d runs, %d cells\n", *out, len(ix.Runs()), ix.NumCells())
}

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
	index := fs.String("index", "", "lake index file (required)")
	fs.Parse(args)
	if *index == "" {
		fmt.Fprintln(os.Stderr, "falconlake list: need -index")
		os.Exit(2)
	}
	ix, err := lake.ReadFile(*index)
	if err != nil {
		fatal(err)
	}
	for _, r := range ix.Runs() {
		cells := 0
		ix.EachCell(r.Name, func(string, float64) { cells++ })
		series := ix.SeriesNames(r.Name)
		quick := ""
		if r.Quick {
			quick = " quick"
		}
		fmt.Printf("%-8s %6d cells  %d series%s  [%s]  %s\n",
			r.Name, cells, len(series), quick,
			strings.Join(r.Schemas, " "), strings.Join(r.Sources, ", "))
	}
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	index := fs.String("index", "", "lake index file (required)")
	run := fs.String("run", "", "run to query (required; see 'falconlake list')")
	summary := fs.Bool("summary", false, "print count/mean/min/max/p50/p99 over the selection")
	serie := fs.String("serie", "", "query a time series of this name instead of metric cells")
	col := fs.String("col", "", "series column (with -serie)")
	from := fs.Int64("from", 0, "series slice start, virtual ns (with -serie)")
	to := fs.Int64("to", -1, "series slice end, virtual ns, -1 = end (with -serie)")
	fs.Parse(args)
	if *index == "" || *run == "" {
		fmt.Fprintln(os.Stderr, "falconlake query: need -index and -run")
		os.Exit(2)
	}
	ix, err := lake.ReadFile(*index)
	if err != nil {
		fatal(err)
	}
	q := lake.NewQuerier(ix)

	if *serie != "" {
		if *col == "" {
			// No column: list the series' columns.
			sv, ok := ix.FindSeries(*run, *serie)
			if !ok {
				fatal(fmt.Errorf("series %q not in run %q (have: %s)",
					*serie, *run, strings.Join(ix.SeriesNames(*run), ", ")))
			}
			fmt.Printf("series %s: %d rows, columns: %s\n",
				*serie, sv.Rows(), strings.Join(sv.Columns(), ", "))
			return
		}
		if *summary {
			s, ok := q.SeriesSummary(*run, *serie, *col)
			if !ok {
				fatal(fmt.Errorf("series %q column %q not in run %q", *serie, *col, *run))
			}
			printSummary(s)
			return
		}
		ts, vs, ok := q.SeriesSlice(*run, *serie, *col, *from, *to)
		if !ok {
			fatal(fmt.Errorf("series %q column %q not in run %q", *serie, *col, *run))
		}
		fmt.Printf("t_ns,%s\n", *col)
		for i, t := range ts {
			fmt.Printf("%d,%s\n", t, formatVal(vs[i]))
		}
		return
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "falconlake query: need exactly one PATTERN (or -serie)")
		os.Exit(2)
	}
	pattern := fs.Arg(0)
	if *summary {
		printSummary(q.Summary(*run, pattern))
		return
	}
	cells := q.Select(*run, pattern)
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
	index := fs.String("index", "", "lake index file (omit when diffing two artifact paths)")
	tol := fs.Float64("tol", 0, "relative tolerance for timing-class metrics (default 0.05)")
	perftol := fs.Float64("perftol", 0, "regression tolerance for perf-class metrics (default 0.25)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "falconlake diff: need exactly two runs (or two artifact paths)")
		os.Exit(2)
	}
	a, b := fs.Arg(0), fs.Arg(1)

	var ix *lake.Index
	var err error
	runA, runB := a, b
	if isPath(a) && isPath(b) {
		// Ad-hoc mode: ingest the two artifacts as runs "a" and "b".
		bld := lake.NewBuilder()
		if err := bld.IngestFile("a", a); err != nil {
			fatal(err)
		}
		if err := bld.IngestFile("b", b); err != nil {
			fatal(err)
		}
		if ix, err = bld.Seal(); err != nil {
			fatal(err)
		}
		runA, runB = "a", "b"
	} else {
		if *index == "" {
			fmt.Fprintln(os.Stderr, "falconlake diff: need -index (or two artifact paths)")
			os.Exit(2)
		}
		if ix, err = lake.ReadFile(*index); err != nil {
			fatal(err)
		}
	}

	rep, err := lake.Diff(ix, runA, runB, lake.Options{RelTol: *tol, PerfTol: *perftol})
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
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

func cmdTrend(args []string) {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	index := fs.String("index", "", "lake index file (omit when scanning artifact paths)")
	tol := fs.Float64("tol", 0, "cumulative drift tolerance for timing-class metrics (default 0.05)")
	perftol := fs.Float64("perftol", 0, "cumulative regression tolerance for perf-class metrics (default 0.10)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	fs.Parse(args)
	if fs.NArg() < 3 {
		fmt.Fprintln(os.Stderr, "falconlake trend: need at least three runs, oldest first (or three artifact paths)")
		os.Exit(2)
	}
	runs := fs.Args()

	allPaths := true
	for _, a := range runs {
		if !isPath(a) {
			allPaths = false
			break
		}
	}
	var ix *lake.Index
	var err error
	if allPaths {
		// Ad-hoc mode: ingest the artifacts in order as runs r1, r2, ...
		bld := lake.NewBuilder()
		names := make([]string, len(runs))
		for i, p := range runs {
			names[i] = fmt.Sprintf("r%d", i+1)
			if err := bld.IngestFile(names[i], p); err != nil {
				fatal(err)
			}
		}
		if ix, err = bld.Seal(); err != nil {
			fatal(err)
		}
		runs = names
	} else {
		if *index == "" {
			fmt.Fprintln(os.Stderr, "falconlake trend: need -index (or artifact paths only)")
			os.Exit(2)
		}
		if ix, err = lake.ReadFile(*index); err != nil {
			fatal(err)
		}
	}

	rep, err := lake.Trend(ix, runs, lake.TrendOptions{RelTol: *tol, PerfTol: *perftol})
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
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

// isPath reports whether s names an existing file or directory.
func isPath(s string) bool {
	_, err := os.Stat(s)
	return err == nil
}
