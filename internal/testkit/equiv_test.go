package testkit

import (
	"fmt"
	"testing"
)

// The sweeps below hold each layer's one implementation to the property
// that makes it equivalent to its reference, on seeds the golden does not
// pin.

// eachSeeded runs fn over every fault-sweep scenario at two seeds (one
// under -short), as subtests named "<scenario>/seed<N>".
func eachSeeded(t *testing.T, fn func(t *testing.T, sc Scenario)) {
	seeds := []int64{0, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, sc := range scenarios(t) {
		for _, extra := range seeds {
			sc := sc
			sc.Seed += extra * 1000
			t.Run(fmt.Sprintf("%s/seed%d", sc.Name, sc.Seed), func(t *testing.T) { fn(t, sc) })
		}
	}
}

// TestSweepSchedulerEquivalence holds the timing wheel to the reference
// heap's (time, seq) delivery order across the full protocol stack. The
// heap loop lives only in internal/sim's tests (TestWheelHeapEquivalence
// compares the two in isolation, cancellations included); end to end the
// checker asserts the order on every delivery (Checker.OnEvent), and this
// sweep requires that every scheduler event of the run went through it.
func TestSweepSchedulerEquivalence(t *testing.T) {
	eachSeeded(t, func(t *testing.T, sc Scenario) {
		res := Run(sc)
		if sched := res.Records - res.ProtoRecords; res.Violations != 0 || res.Events == 0 || res.Events != sched {
			t.Fatalf("%q seed %d: %d violations, checker saw %d of %d scheduler events",
				sc.Name, sc.Seed, res.Violations, res.Events, sched)
		}
	})
}

// TestSweepPoolEquivalence covers per-partition free lists: on a 2-way
// split each partition recycles its own frames, port events and transport
// packets, and frames and packets are released into a different
// partition's lists than the one they came from. The protocol must not
// notice: the run drains exactly once with every partition's checker
// clean.
func TestSweepPoolEquivalence(t *testing.T) {
	eachSeeded(t, func(t *testing.T, sc Scenario) {
		sc.Shards = 2
		checkPartitioned(t, sc, Run(sc))
	})
}

// TestSweepHotPathEquivalence covers the transport hot path end to end on
// fresh seeds. Its parts are held to their per-PSN and map references in
// isolation (pdl's TestScanMatchesPerPSNModel, tl's TestRSNTableProperty);
// here the checker's scoreboard-drift and window checks run on every
// packet, and every pooled transport packet must be back on the free list
// once the run drains — a packet released twice or never shows up as a
// count mismatch.
func TestSweepHotPathEquivalence(t *testing.T) {
	for _, sc := range scenarios(t) {
		sc := sc
		sc.Seed += 3000
		t.Run(sc.Name, func(t *testing.T) {
			res := Run(sc)
			if res.Violations != 0 || res.Checks == 0 || res.PacketsAllocated == 0 ||
				res.PacketsFree != res.PacketsAllocated {
				t.Fatalf("%q seed %d: %d violations over %d checks, %d packets allocated, %d free",
					sc.Name, sc.Seed, res.Violations, res.Checks, res.PacketsAllocated, res.PacketsFree)
			}
		})
	}
}

// TestSweepTimerEquivalence covers the lazy RTO/TLP/RACK timers end to end
// on fresh seeds: every timer body must fire at its deadline, exactly as
// eager per-ACK re-arming would fire it. The checker asserts the discipline
// that guarantees this at every delivery (pdl.Conn.CheckTimers: no
// deadline already past, its event pending at or before it), and recovery
// must still drain the workload.
func TestSweepTimerEquivalence(t *testing.T) {
	for _, sc := range scenarios(t) {
		sc := sc
		sc.Seed += 5000
		t.Run(sc.Name, func(t *testing.T) {
			res := Run(sc)
			if res.Violations != 0 || res.Events == 0 || res.ConnFailed ||
				res.Completed != res.Issued || res.Issued != sc.Ops {
				t.Fatalf("%q seed %d: %d violations over %d events, issued %d completed %d (conn failed %v)",
					sc.Name, sc.Seed, res.Violations, res.Events, res.Issued, res.Completed, res.ConnFailed)
			}
			if sc.DropPct >= 5 && res.RTOs+res.Retransmits == 0 {
				t.Fatalf("%q seed %d: %.0f%% drop triggered no recovery", sc.Name, sc.Seed, sc.DropPct)
			}
		})
	}
}
