package main

// The watch subcommand: regenerate a committed falconmetrics/v1
// baseline in-process and diff the fresh run against it. Unlike `diff`,
// which compares two existing artifacts, watch closes the loop for a
// working tree — it derives the figure set and quick flag from the
// baseline itself, reruns exactly those registry entries with telemetry
// attached (the same experiments.Run falconbench -metrics uses), and
// flags any cell the edit moved. Exit status 1 on
// findings makes it usable as a local pre-commit gate.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path"

	"falcon/internal/experiments"
	"falcon/internal/lake"
	"falcon/internal/telemetry"
)

func cmdWatch(args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	tol := fs.Float64("tol", 0, "relative tolerance for timing-class metrics (default 0.05)")
	perftol := fs.Float64("perftol", 0, "regression tolerance for perf-class metrics (default 0.25)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	keep := fs.String("keep", "", "also write the regenerated artifact to this path")
	figure := fs.String("figure", "", "glob of baseline figures to regenerate (e.g. 'figStorm' or 'fig1*'); default: all")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "falconlake watch: need exactly one baseline artifact path")
		os.Exit(2)
	}
	baselinePath := fs.Arg(0)

	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fatal(err)
	}
	var baseline experiments.MetricsReport
	if err := json.Unmarshal(data, &baseline); err != nil {
		fatal(fmt.Errorf("%s: %v", baselinePath, err))
	}
	if baseline.Schema != "falconmetrics/v1" {
		fatal(fmt.Errorf("%s: schema %q, watch needs falconmetrics/v1", baselinePath, baseline.Schema))
	}
	if len(baseline.Figures) == 0 {
		fatal(fmt.Errorf("%s: no figures to regenerate", baselinePath))
	}

	// Re-run exactly the baseline's figure set, in registry order, with
	// the baseline's quick flag — the regenerated artifact is then
	// cell-for-cell comparable. -figure narrows the set to a glob, for
	// fast iteration on one figure of a multi-figure artifact; the
	// baseline is filtered to the same subset so the diff stays
	// cell-for-cell.
	want := make(map[string]bool, len(baseline.Figures))
	var kept []experiments.FigureMetrics
	for _, f := range baseline.Figures {
		if *figure != "" {
			ok, err := path.Match(*figure, f.Name)
			if err != nil {
				fatal(fmt.Errorf("bad -figure glob %q: %v", *figure, err))
			}
			if !ok {
				continue
			}
		}
		want[f.Name] = true
		kept = append(kept, f)
	}
	if len(kept) == 0 {
		fatal(fmt.Errorf("%s: no baseline figure matches -figure %q", baselinePath, *figure))
	}
	baseline.Figures = kept
	var entries []experiments.Entry
	for _, e := range experiments.Registry() {
		if want[e.Name] {
			entries = append(entries, e)
			delete(want, e.Name)
		}
	}
	if len(want) > 0 {
		for name := range want {
			fmt.Fprintf(os.Stderr, "falconlake watch: baseline figure %q is not in the experiment registry\n", name)
		}
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "watch: regenerating %d figure(s) (quick=%v) from %s\n",
		len(entries), baseline.Quick, baselinePath)
	opts := experiments.Options{Quick: baseline.Quick, Tel: telemetry.NewSuite()}
	rep := experiments.Run(entries, opts, 1, io.Discard)
	current := experiments.NewMetricsReport(rep)
	if *keep != "" {
		f, err := os.Create(*keep)
		if err != nil {
			fatal(err)
		}
		werr := current.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(werr)
		}
	}

	var buf bytes.Buffer
	if err := current.WriteJSON(&buf); err != nil {
		fatal(err)
	}
	bld := lake.NewBuilder()
	// Ingest the (possibly -figure-filtered) baseline from memory, not the
	// file: a narrowed regeneration must diff against the same subset or
	// every skipped figure reads as a missing metric.
	var base bytes.Buffer
	if err := baseline.WriteJSON(&base); err != nil {
		fatal(err)
	}
	if err := bld.IngestMetricsJSON("baseline", &base, baselinePath); err != nil {
		fatal(err)
	}
	if err := bld.IngestMetricsJSON("current", &buf, "(regenerated)"); err != nil {
		fatal(err)
	}
	ix, err := bld.Seal()
	if err != nil {
		fatal(err)
	}
	drep, err := lake.Diff(ix, "baseline", "current", lake.Options{RelTol: *tol, PerfTol: *perftol})
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		err = drep.WriteJSON(os.Stdout)
	} else {
		err = drep.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	if !drep.Empty() {
		os.Exit(1)
	}
}
