package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestShardTableEquivalence reruns one experiment from each family with
// every simulator split into 2 and 4 merged partitions (the falconbench
// -shards mode) and requires bit-identical tables against the single
// event loop. This is the figure-level face of the trace-hash gate in
// internal/testkit: partitioning must never move a cell, because the
// deterministic merge replays the exact (time, seq) delivery order. The
// full-registry version of this check is in `make check`, which diffs
// complete falconbench runs at -shards 1, 2 and 4.
func TestShardTableEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	t.Parallel()
	families := []struct {
		name string
		run  func(Options) *Table
	}{
		{"scale/FigScale", func(o Options) *Table {
			o.Quick = true
			return FigScale(o, 150*time.Microsecond)
		}},
		{"loss/Fig10", func(o Options) *Table { return Fig10(o, 500*time.Microsecond) }},
		{"congestion/Fig13", func(o Options) *Table { return Fig13(o, 500*time.Microsecond) }},
		{"hwscale/Fig19", Fig19},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			base := fam.run(Options{})
			for _, n := range []int{2, 4} {
				got := fam.run(Options{Shards: n})
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
	t.Parallel()
	o := Options{Quick: true, Shards: 4, ShardParallel: true}
	a := FigScale(o, 150*time.Microsecond)
	b := FigScale(o, 150*time.Microsecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed parallel figScale runs differ:\nfirst: %+v\nsecond: %+v", a, b)
	}
}
