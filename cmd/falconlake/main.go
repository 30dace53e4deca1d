// falconlake judges a pair of bench record files (`bench -out` JSON lines
// of untraced runs), the after file against the before, by the rules of
// internal/lake: every exact record field identical seed by seed, and
// each host metric flagged per workload only when its seed set regressed.
//
//	falconlake diff BEFORE.jsonl AFTER.jsonl
//
// It exits 0 when the pair is clean, 1 on findings or an unreadable
// file, and 2 on bad usage.
package main

import (
	"fmt"
	"os"

	"falcon/internal/lake"
)

func main() {
	if len(os.Args) != 4 || os.Args[1] != "diff" {
		fmt.Fprintln(os.Stderr, "usage: falconlake diff BEFORE.jsonl AFTER.jsonl")
		os.Exit(2)
	}
	var recs [2]lake.Records
	for i, path := range os.Args[2:] {
		var err error
		if recs[i], err = lake.Read(path); err != nil {
			fmt.Fprintf(os.Stderr, "falconlake: %v\n", err)
			os.Exit(1)
		}
	}
	rep := lake.Diff(recs[0], recs[1])
	fmt.Printf("diff %s -> %s: %s", os.Args[2], os.Args[3], rep)
	if len(rep.Findings) > 0 {
		os.Exit(1)
	}
}
