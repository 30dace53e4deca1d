package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestExperimentDeterminism runs one experiment from each family twice and
// requires bit-identical tables: every source of randomness must flow from
// the simulator's seeded RNG, so a rerun reproduces each figure exactly.
// A regression here means some experiment picked up nondeterminism (map
// iteration ordering, wall-clock time, global rand) that would make the
// paper's figures unreproducible run to run.
func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	families := []struct {
		name string
		run  func() *Table
	}{
		{"swhw/Fig1", func() *Table { return Fig1(Options{}, 500*time.Microsecond) }},
		{"loss/Fig10", func() *Table { return Fig10(Options{}, 500*time.Microsecond) }},
		{"congestion/Fig13", func() *Table { return Fig13(Options{}, 500*time.Microsecond) }},
		{"multipath/Fig3", func() *Table { return Fig3(Options{}, 500*time.Microsecond) }},
		{"isolation/Fig24", func() *Table { return Fig24(Options{}, 500*time.Microsecond) }},
		{"faeexp/Fig22b", func() *Table { return Fig22b(Options{}, 500*time.Microsecond) }},
		{"hwscale/Fig20a", func() *Table { return Fig20a(Options{}, 500*time.Microsecond) }},
		{"ablations/AblationECN", func() *Table { return AblationECN(Options{}, 500*time.Microsecond) }},
		{"apps/Table4", func() *Table { return Table4(Options{}, 500*time.Microsecond) }},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			a, b := fam.run(), fam.run()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two same-seed runs differ:\nfirst: %+v\nsecond: %+v", a, b)
			}
		})
	}
}
