package testkit

import (
	"fmt"
	"strings"
	"testing"
)

// shortMatrix is the subset of the fault matrix that runs under -short
// (tier-1): one scenario per fault family, push+pull mixed.
func shortMatrix() []Scenario {
	var out []Scenario
	keep := map[string]bool{
		"mixed/clean":              true,
		"mixed/drop5":              true,
		"mixed/reorder":            true,
		"mixed/degrade":            true,
		"mixed/rnr":                true,
		"mixed/tinyrx":             true,
		"unordered/sink":           true,
		"mixed/drop+reorder-bidir": true,
	}
	for _, sc := range Matrix() {
		if keep[sc.Name] {
			out = append(out, sc)
		}
	}
	return out
}

func scenarios(t *testing.T) []Scenario {
	t.Helper()
	m := Matrix()
	if testing.Short() {
		m = shortMatrix()
	}
	for i := range m {
		m[i] = m[i].withDefaults()
	}
	return m
}

// TestSweepExactlyOnce runs the fault matrix with the invariant checker
// armed (its default FailFunc panics, so any protocol violation fails the
// run) and asserts every scenario reaches exactly-once delivery: all issued
// transactions complete without error, the target served each RSN exactly
// once, and the fabric genuinely exercised the intended fault (clean runs
// have no retransmits; faulty runs do).
func TestSweepExactlyOnce(t *testing.T) {
	for _, sc := range scenarios(t) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := Run(sc)
			if res.ConnFailed {
				t.Fatalf("connection declared dead under %q (retransmits=%d rtos=%d)",
					sc.Name, res.Retransmits, res.RTOs)
			}
			if res.Issued != sc.Ops || res.Completed != sc.Ops {
				t.Fatalf("issued %d completed %d, want %d", res.Issued, res.Completed, sc.Ops)
			}
			if res.Errored != 0 {
				t.Fatalf("%d transactions completed with error", res.Errored)
			}
			if res.Served != sc.Ops {
				t.Fatalf("target served %d distinct RSNs, want %d", res.Served, sc.Ops)
			}
			if res.Checks == 0 {
				t.Fatal("invariant checker never ran")
			}
			hasFault := sc.DropPct > 0 || sc.ReorderPct > 0 || sc.RNRPct > 0 ||
				sc.TinyRxPool || sc.DegradeGbps > 0
			if !hasFault && res.Retransmits != 0 {
				t.Errorf("clean run retransmitted %d packets", res.Retransmits)
			}
			if sc.DropPct >= 5 && res.Retransmits == 0 {
				t.Errorf("%.0f%% drop produced no retransmits — fault not exercised", sc.DropPct)
			}
			if sc.RNRPct > 0 && res.RNRRetries == 0 {
				t.Errorf("RNR scenario produced no RNR retries — fault not exercised")
			}
		})
	}
}

// TestSweepDeterminism asserts the repository's central reproducibility
// claim at full trace granularity: running a scenario twice with the same
// seed yields a byte-identical event trace (equal FNV digests over equal
// record counts), while a different seed diverges.
func TestSweepDeterminism(t *testing.T) {
	for _, sc := range scenarios(t) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a := Run(sc)
			b := Run(sc)
			if a.TraceHash != b.TraceHash || a.Records != b.Records {
				t.Fatalf("same seed diverged: fnv1a:%016x/%d vs fnv1a:%016x/%d",
					a.TraceHash, a.Records, b.TraceHash, b.Records)
			}
			// Only scenarios that draw from the RNG (randomized drop,
			// reorder, RNR) can diverge under a different seed; fully
			// deterministic scenarios are identical for every seed, which
			// is itself correct.
			if sc.DropPct > 0 || sc.ReorderPct > 0 || sc.RNRPct > 0 {
				reseeded := sc
				reseeded.Seed += 1000
				c := Run(reseeded)
				if c.TraceHash == a.TraceHash {
					t.Fatalf("different seeds produced identical trace hash fnv1a:%016x", a.TraceHash)
				}
			}
		})
	}
}

// TestSweepRaceShort is the short sweep `make race` drives: a handful of
// representative scenarios across seeds under the race detector. The
// simulator world is single-goroutine, so this guards against accidental
// introduction of shared mutable state (e.g. a package-level cache on the
// hot path) rather than expected concurrency.
func TestSweepRaceShort(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, sc := range shortMatrix() {
			sc := sc
			sc.Seed += seed * 7919
			t.Run(fmt.Sprintf("%s/seed%d", sc.Name, sc.Seed), func(t *testing.T) {
				res := Run(sc)
				if res.Violations != 0 {
					t.Fatalf("invariant violations: %d", res.Violations)
				}
			})
		}
	}
}

// TestCheckerSelfTest proves the harness actually detects violations: a
// deliberately over-strict outstanding bound must make an otherwise healthy
// run trip the checker. A verification net that cannot fail verifies
// nothing.
func TestCheckerSelfTest(t *testing.T) {
	var violations []string
	sc := Scenario{
		Name:              "selftest",
		Seed:              42,
		Workload:          WorkloadPush,
		Ops:               50,
		Window:            16,
		StrictOutstanding: 2, // far below the real window: must trip
		FailFunc: func(format string, args ...any) {
			violations = append(violations, fmt.Sprintf(format, args...))
		},
	}
	res := Run(sc)
	if res.Violations == 0 || len(violations) == 0 {
		t.Fatal("seeded violation not detected: checker passed a run that exceeds StrictOutstanding=2")
	}
	if !strings.Contains(violations[0], "strict outstanding bound") {
		t.Fatalf("unexpected violation: %s", violations[0])
	}
	// The dump must carry enough context to debug from: window state
	// and connection stats.
	if !strings.Contains(violations[0], "tx: base=") || !strings.Contains(violations[0], "stats:") {
		t.Fatalf("violation lacks the connection context dump:\n%s", violations[0])
	}
}

// TestSweepQuiescenceChecked makes sure the post-run leak checks are in the
// path: with an impossible StrictOutstanding the recorded violations include
// probe-time failures, and a healthy run records none.
func TestSweepQuiescenceChecked(t *testing.T) {
	var n int
	sc := Scenario{Name: "quiesce", Seed: 7, Workload: WorkloadMixed,
		FailFunc: func(string, ...any) { n++ }}
	res := Run(sc)
	if n != 0 || res.Violations != 0 {
		t.Fatalf("healthy run recorded %d violations", res.Violations)
	}
}

// TestSweepDeadConnectionBalancesPools black-holes the forward path, and
// in a second pass the reverse path too, for each workload: the
// connection runs out its RTO budget and fails, every issued op completes
// with an error, and the harness's quiescence checks (pool occupancy,
// cluster free lists, packet and frame pools) find everything returned.
func TestSweepDeadConnectionBalancesPools(t *testing.T) {
	for _, w := range []Workload{WorkloadPush, WorkloadPull, WorkloadMixed} {
		for _, bidir := range []bool{false, true} {
			sc := Scenario{
				Name: fmt.Sprintf("%v/dead/bidir=%v", w, bidir), Seed: 5,
				Workload: w, Ops: 16, DropPct: 100, Bidirectional: bidir,
			}
			t.Run(sc.Name, func(t *testing.T) {
				sc.FailFunc = func(format string, args ...any) { t.Errorf(format, args...) }
				res := Run(sc)
				if !res.ConnFailed {
					t.Fatal("connection survived a black hole")
				}
				if res.Issued != sc.Ops || res.Completed != sc.Ops || res.Errored != sc.Ops {
					t.Fatalf("issued %d, completed %d, errored %d, want all %d errored",
						res.Issued, res.Completed, res.Errored, sc.Ops)
				}
				if res.PacketsAllocated == 0 || res.FramesAllocated == 0 {
					t.Fatalf("%d packets and %d frames allocated: the pools were never used",
						res.PacketsAllocated, res.FramesAllocated)
				}
			})
		}
	}
}
