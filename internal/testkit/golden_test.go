package testkit

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/sweep_hashes.golden from this run")

const sweepGoldenPath = "testdata/sweep_hashes.golden"

// TestSweepGolden pins the event stream itself: it compares every
// fault-matrix scenario's full trace hash, protocol-only hash and record
// count against values committed from an earlier build. A change that
// promises not to move a
// simulated event leaves the file alone; one that moves events on purpose
// reruns with
//
//	go test ./internal/testkit -run TestSweepGolden -update
//
// and explains the diff.
func TestSweepGolden(t *testing.T) {
	if *update {
		var b strings.Builder
		b.WriteString("# scenario trace_hash proto_hash records (testkit.Matrix; regenerate with -update)\n")
		for _, sc := range Matrix() {
			res := Run(sc)
			fmt.Fprintf(&b, "%s %016x %016x %d\n", sc.Name, res.TraceHash, res.ProtoHash, res.Records)
		}
		if err := os.WriteFile(sweepGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(sweepGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, rest, ok := strings.Cut(line, " "); ok && name != "#" {
			golden[name] = rest
		}
	}
	if n := len(Matrix()); len(golden) != n {
		t.Fatalf("%s pins %d runs, want %d", sweepGoldenPath, len(golden), n)
	}
	for _, sc := range scenarios(t) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := Run(sc)
			got := fmt.Sprintf("%016x %016x %d", res.TraceHash, res.ProtoHash, res.Records)
			if want := golden[sc.Name]; got != want {
				t.Fatalf("event stream moved:\n got  %s\n want %s", got, want)
			}
		})
	}
}
