package experiments

import (
	"reflect"
	"testing"
	"time"

	"falcon/internal/sim"
)

// TestShardTableEquivalence reruns one experiment from each family with
// every simulator split into 2 and 4 merged partitions (the falconbench
// -shards mode) and requires bit-identical tables against the single
// event loop. This is the figure-level face of the trace-hash gate in
// internal/testkit: partitioning must never move a cell, because the
// deterministic merge replays the exact (time, seq) delivery order. The
// full-registry version of this check is in `make check`, which diffs
// complete falconbench runs at -shards 1, 2 and 4.
//
// The test mutates the process-wide default shard count, so it must not
// run in parallel with other tests in this package (it doesn't call
// t.Parallel, and Go runs same-package tests sequentially otherwise).
func TestShardTableEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	defer sim.SetDefaultShards(1)
	families := []struct {
		name string
		run  func() *Table
	}{
		{"scale/FigScale", func() *Table { return FigScale(150*time.Microsecond, true) }},
		{"loss/Fig10", func() *Table { return Fig10(500 * time.Microsecond) }},
		{"congestion/Fig13", func() *Table { return Fig13(500 * time.Microsecond) }},
		{"hwscale/Fig19", Fig19},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			sim.SetDefaultShards(1)
			base := fam.run()
			for _, n := range []int{2, 4} {
				sim.SetDefaultShards(n)
				got := fam.run()
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("shards=%d table differs from single loop:\nsingle: %+v\nsharded: %+v", n, base, got)
				}
			}
		})
	}
}

// TestShardParallelFigScale runs figScale — the one figure designed with
// partition-local accumulation — in the experimental windowed-parallel
// mode twice and requires bit-identical tables: concurrency may change
// wall time, never a cell between same-seed parallel runs. (Parallel
// tables are self-deterministic but not byte-comparable to merged mode:
// partition-local timers and RNG streams legitimately shift internal
// event counts.)
func TestShardParallelFigScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	defer func() {
		sim.SetDefaultShards(1)
		sim.SetDefaultShardParallel(false)
	}()
	sim.SetDefaultShards(4)
	sim.SetDefaultShardParallel(true)
	a := FigScale(150*time.Microsecond, true)
	b := FigScale(150*time.Microsecond, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed parallel figScale runs differ:\nfirst: %+v\nsecond: %+v", a, b)
	}
}
