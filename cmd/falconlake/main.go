// falconlake judges a pair of bench record files (`bench -out` JSON lines
// of untraced runs), the after file against the before, by the rules of
// internal/lake: every exact record field identical seed by seed, and
// each judged host metric flagged per workload only when its seed set
// crosses the set gate calibrated on the A/A sets in
// internal/lake/testdata/calibration.
//
//	falconlake diff BEFORE.jsonl AFTER.jsonl
//
// It exits 0 when the pair is clean, 1 on findings or an unreadable
// file, and 2 on bad usage.
package main

import (
	"fmt"
	"io"
	"os"

	"falcon/internal/lake"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 3 || args[0] != "diff" {
		fmt.Fprintln(stderr, "usage: falconlake diff BEFORE.jsonl AFTER.jsonl")
		return 2
	}
	var recs [2]lake.Records
	for i, path := range args[1:] {
		var err error
		if recs[i], err = lake.Read(path); err != nil {
			fmt.Fprintf(stderr, "falconlake: %v\n", err)
			return 1
		}
	}
	rep := lake.Diff(recs[0], recs[1])
	fmt.Fprintf(stdout, "diff %s -> %s: %s", args[1], args[2], rep)
	if len(rep.Findings) > 0 {
		return 1
	}
	return 0
}
