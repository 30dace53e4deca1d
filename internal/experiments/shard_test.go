package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestShardTableEquivalence reruns one experiment from each family with
// Options.Shards set and compares the table against the single loop's.
// Shards reaches figScale only: every other figure shares state across
// partitions and must print the single loop's table cell for cell. figScale
// at 2 and 4 concurrent partitions must match the single loop on every
// protocol column (ops and goodput included); only its event columns may
// move, because same-instant events on either side of a partition
// boundary run in the barrier's order. cmd/falconbench's
// figscale_shards4.golden pins the partitioned table itself.
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
				if fam.name == "scale/FigScale" {
					got, base := withoutEventColumns(got), withoutEventColumns(base)
					if len(got.Rows) == 0 || !reflect.DeepEqual(base, got) {
						t.Fatalf("shards=%d moved a protocol column:\nsingle: %+v\nsharded: %+v", n, base, got)
					}
					continue
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("shards=%d table differs from single loop:\nsingle: %+v\nsharded: %+v", n, base, got)
				}
			}
		})
	}
}

// withoutEventColumns returns a copy of a figScale table without its
// "sim events" and "ev/host" columns.
func withoutEventColumns(tb *Table) *Table {
	out := &Table{Title: tb.Title}
	var keep []int
	for i, c := range tb.Columns {
		if c != "sim events" && c != "ev/host" {
			keep = append(keep, i)
			out.Columns = append(out.Columns, c)
		}
	}
	for _, row := range tb.Rows {
		var r []string
		for _, i := range keep {
			r = append(r, row[i])
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

// TestShardParallelFigScale runs figScale on four concurrent partitions
// twice and requires bit-identical tables: concurrency may change wall
// time, never a cell between same-seed partitioned runs.
func TestShardParallelFigScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	t.Parallel()
	o := Options{Quick: true, Shards: 4}
	a := FigScale(o, 150*time.Microsecond)
	b := FigScale(o, 150*time.Microsecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed parallel figScale runs differ:\nfirst: %+v\nsecond: %+v", a, b)
	}
}
