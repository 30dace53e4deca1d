package lake

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"falcon/internal/stats"
)

// synthIndex builds a small index from in-memory artifacts: one
// metrics run with a spread of values plus one series.
func synthIndex(t *testing.T) *Index {
	t.Helper()
	ix := &Index{}
	m := map[string]float64{"figX/sub0/pdl/data_sent": 7}
	for i := 0; i < 100; i++ {
		m[fmt.Sprintf("figX/sub%d/pdl/lat_ns", i)] = float64((i + 1) * 100)
	}
	ingestMetrics(t, ix, "r1", m)
	csv := "t_ns,conn/fcwnd,fwd/queue_drops\n0,16,0\n1000,20,1\n2000,24,1\n3000,28,3\n"
	if err := ix.IngestSeriesCSV("r1", "s1", strings.NewReader(csv), "s1.csv"); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestQuerierSelectAndLookup(t *testing.T) {
	ix := synthIndex(t)

	if v, ok := ix.Lookup("r1", "figX/sub0/pdl/data_sent"); !ok || v != 7 {
		t.Fatalf("Lookup = %v, %v", v, ok)
	}
	if _, ok := ix.Lookup("nope", "figX/sub0/pdl/data_sent"); ok {
		t.Fatal("Lookup on missing run should fail")
	}

	all := ix.Select("r1", "figX/*/pdl/lat_ns")
	if len(all) != 100 {
		t.Fatalf("Select matched %d cells, want 100", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Path >= all[i].Path {
			t.Fatal("Select output not sorted")
		}
	}
	one := ix.Select("r1", "figX/sub42/**")
	if len(one) != 1 || one[0].Value != 4300 {
		t.Fatalf("Select sub42 = %+v", one)
	}
	if got := ix.Select("r1", "**/does_not_exist"); got != nil {
		t.Fatalf("empty selection should be nil, got %v", got)
	}
}

// TestQuerierSummary checks the aggregate against the exact values and
// the histogram contract: p50/p99 match a directly-fed
// internal/stats.Histogram over the same samples.
func TestQuerierSummary(t *testing.T) {
	ix := synthIndex(t)
	s := ix.Summary("r1", "figX/*/pdl/lat_ns")
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Min != 100 || s.Max != 10000 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.Mean != 5050 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	var h stats.Histogram
	for i := 0; i < 100; i++ {
		h.Record(uint64((i + 1) * 100))
	}
	if s.P50 != float64(h.Quantile(50)) || s.P99 != float64(h.Quantile(99)) {
		t.Fatalf("P50/P99 = %v/%v, want %v/%v", s.P50, s.P99, h.Quantile(50), h.Quantile(99))
	}
}

func TestQuerierSeries(t *testing.T) {
	ix := synthIndex(t)

	if names := ix.SeriesNames("r1"); !reflect.DeepEqual(names, []string{"s1"}) {
		t.Fatalf("SeriesNames = %v", names)
	}

	ts, vs, ok := ix.SeriesSlice("r1", "s1", "conn/fcwnd", 0, -1)
	if !ok || !reflect.DeepEqual(ts, []int64{0, 1000, 2000, 3000}) ||
		!reflect.DeepEqual(vs, []float64{16, 20, 24, 28}) {
		t.Fatalf("full slice = %v %v %v", ts, vs, ok)
	}

	ts, vs, _ = ix.SeriesSlice("r1", "s1", "conn/fcwnd", 1000, 2000)
	if !reflect.DeepEqual(ts, []int64{1000, 2000}) || !reflect.DeepEqual(vs, []float64{20, 24}) {
		t.Fatalf("bounded slice = %v %v", ts, vs)
	}

	if _, _, ok := ix.SeriesSlice("r1", "s1", "no/such_col", 0, -1); ok {
		t.Fatal("missing column should fail")
	}
	if _, _, ok := ix.SeriesSlice("r1", "nope", "conn/fcwnd", 0, -1); ok {
		t.Fatal("missing series should fail")
	}

	sum, ok := ix.SeriesSummary("r1", "s1", "fwd/queue_drops")
	if !ok || sum.Count != 4 || sum.Max != 3 || sum.Min != 0 {
		t.Fatalf("SeriesSummary = %+v, %v", sum, ok)
	}
}
