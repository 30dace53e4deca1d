package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"falcon/internal/telemetry"
)

// exportSuite renders a suite the way falconbench -metrics/-series would:
// the registry snapshot as JSON plus every sampler CSV, keyed by file
// name.
func exportSuite(t *testing.T, tel *telemetry.Suite) ([]byte, map[string][]byte) {
	t.Helper()
	var j bytes.Buffer
	snap := tel.Snapshot(0)
	if err := snap.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := tel.WriteSeries(dir, "x")
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		series[filepath.Base(p)] = b
	}
	return j.Bytes(), series
}

// TestInstrumentedExportDeterminism is the -metrics/-series acceptance
// check of ISSUE 3: two same-seed instrumented runs of each instrumented
// figure family must export byte-identical metrics JSON and series CSVs,
// and the table must equal the uninstrumented run's — telemetry observes,
// it never perturbs.
func TestInstrumentedExportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	const runFor = 500 * time.Microsecond
	families := []struct {
		name string
		fig  func(Options, time.Duration) *Table
	}{
		{"loss/Fig10", Fig10},
		{"congestion/Fig13", Fig13},
		{"multipath/Fig15", Fig15},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			tel1, tel2 := telemetry.NewSuite(), telemetry.NewSuite()
			tbl1 := fam.fig(Options{Tel: tel1}, runFor)
			tbl2 := fam.fig(Options{Tel: tel2}, runFor)
			if !reflect.DeepEqual(tbl1, tbl2) {
				t.Fatalf("two same-seed instrumented runs differ:\nfirst: %+v\nsecond: %+v", tbl1, tbl2)
			}
			if plain := fam.fig(Options{}, runFor); !reflect.DeepEqual(tbl1, plain) {
				t.Fatalf("telemetry perturbed the table:\ninstrumented: %+v\nplain: %+v", tbl1, plain)
			}

			j1, s1 := exportSuite(t, tel1)
			j2, s2 := exportSuite(t, tel2)
			if len(tel1.Snapshot(0).Metrics) == 0 {
				t.Fatal("instrumented run exported no metrics")
			}
			if !bytes.Equal(j1, j2) {
				t.Fatalf("metrics JSON differs between same-seed runs:\n--- first ---\n%s\n--- second ---\n%s", j1, j2)
			}
			if tel1.SamplerCount() == 0 {
				t.Fatal("instrumented run registered no samplers")
			}
			if len(s1) != len(s2) {
				t.Fatalf("series file sets differ: %d vs %d", len(s1), len(s2))
			}
			for name, b1 := range s1 {
				b2, ok := s2[name]
				if !ok {
					t.Fatalf("second run missing series %q", name)
				}
				if !bytes.Equal(b1, b2) {
					t.Fatalf("series %q differs between same-seed runs", name)
				}
				if !bytes.HasPrefix(b1, []byte("t_ns,")) || bytes.Count(b1, []byte("\n")) < 3 {
					t.Fatalf("series %q looks empty or malformed:\n%s", name, b1)
				}
			}
		})
	}
}

// TestInstrumentedRunReport checks the runner-level plumbing of an
// instrumented Run: every figure carries its own suite and snapshot, the
// suite passed in stays untouched, and the stripped MetricsReport keeps
// only figures that exported metrics.
func TestInstrumentedRunReport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// fig19 and fig21 export nothing; fig15's telemetry at quick windows
	// would dominate the suite, so drive the runner with a tiny synthetic
	// instrumented entry instead.
	entries := pickEntries(t, "fig19", "fig21")
	entries = append(entries, Entry{
		Name: "synthetic",
		Desc: "test-only instrumented entry",
		Run: func(o Options) *Table {
			if o.Tel != nil {
				o.Tel.Registry().Counter("synthetic/ran").Inc()
			}
			return &Table{Title: "synthetic", Columns: []string{"v"}}
		},
	})
	var out bytes.Buffer
	template := telemetry.NewSuite()
	figs := Run(entries, Options{Quick: true, Tel: template}, 1, &out)
	suites := map[*telemetry.Suite]bool{template: true}
	for i, fr := range figs {
		if fr.Name != entries[i].Name {
			t.Fatalf("figure %d = %q, want %q", i, fr.Name, entries[i].Name)
		}
		if fr.Metrics == nil || fr.Tel == nil {
			t.Fatalf("figure %q has no metrics snapshot or suite", fr.Name)
		}
		if suites[fr.Tel] {
			t.Fatalf("figure %q shares a suite", fr.Name)
		}
		suites[fr.Tel] = true
	}
	if n := len(template.Snapshot(0).Metrics); n != 0 {
		t.Fatalf("the suite passed to Run received %d metrics", n)
	}
	if v, ok := figs[2].Metrics.Get("synthetic/ran"); !ok || v != 1 {
		t.Fatalf("instrumented entry did not record into its suite: %v %v", v, ok)
	}
	m := NewMetricsReport(figs, true)
	if !m.Quick || len(m.Figures) != 1 || m.Figures[0].Name != "synthetic" {
		t.Fatalf("metrics report should keep only instrumented figures: %+v", m.Figures)
	}
	var j1, j2 bytes.Buffer
	if err := m.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("MetricsReport JSON not stable")
	}
}
