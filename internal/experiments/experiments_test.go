package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func cellF(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestTableFprint(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== demo ==", "a", "bb", "333"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig22aShape(t *testing.T) {
	tb := Fig22a()
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Stateless is flat; stateful degrades with connection count;
	// prefetch stays within 30% of stateless everywhere up to 128K.
	first := cellF(t, tb, 0, 1)
	last := cellF(t, tb, len(tb.Rows)-1, 1)
	if first != last {
		t.Fatalf("stateless rate varies: %v vs %v", first, last)
	}
	if cellF(t, tb, len(tb.Rows)-1, 2) >= cellF(t, tb, 0, 2) {
		t.Fatal("stateful should degrade with connections")
	}
	if cellF(t, tb, 3, 3) < 0.7*cellF(t, tb, 3, 1) {
		t.Fatal("prefetch should stay near stateless at 128K conns")
	}
}

func TestFig23Shape(t *testing.T) {
	tb := Fig23()
	// Rate decreases monotonically with state size, and the 512B
	// prefetch rate stays within the paper's ~15M band.
	prev := 1e18
	for i := range tb.Rows {
		v := cellF(t, tb, i, 1)
		if v > prev {
			t.Fatalf("prefetch rate increased with state size at row %d", i)
		}
		prev = v
	}
	last := cellF(t, tb, len(tb.Rows)-1, 1)
	if last < 11 || last > 18 {
		t.Fatalf("512B prefetch rate = %vM, want ~15M", last)
	}
}

func TestFig12ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	tb := Fig12(Options{}, 1500*time.Microsecond)
	// At the highest drop rate: SR > GBN > AR.
	last := len(tb.Rows) - 1
	gbn, sr, ar := cellF(t, tb, last, 1), cellF(t, tb, last, 2), cellF(t, tb, last, 3)
	if !(sr > gbn && gbn > ar) {
		t.Fatalf("mode ordering violated at 2%% drop: gbn=%v sr=%v ar=%v", gbn, sr, ar)
	}
}

func TestFig10FalconHoldsGoodputQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	tb := Fig10(Options{}, 1500*time.Microsecond)
	// Write rows 0..4: Falcon at 2% drop stays above RoCE-GBN.
	falcon := cellF(t, tb, 4, 2)
	gbn := cellF(t, tb, 4, 4)
	if falcon <= gbn {
		t.Fatalf("Falcon (%v) should beat RoCE-GBN (%v) at 2%% drop", falcon, gbn)
	}
}

func TestIdealIncastLatency(t *testing.T) {
	// 1MB over a fair share of 200G across 5 flows: 5x the single-flow
	// serialization.
	one := idealIncastLatency(1, 1<<20, 200)
	bytes := float64(1 << 20)
	want := time.Duration(bytes * 8 / 40)
	if one != want {
		t.Fatalf("ideal 5-flow latency = %v, want %v", one, want)
	}
	if idealIncastLatency(2, 1<<20, 200) != 2*one {
		t.Fatal("ideal should scale with flow count")
	}
}

func TestFmtSize(t *testing.T) {
	cases := map[int]string{8: "8.0B", 2048: "2.0KB", 1 << 20: "1.0MB"}
	for in, want := range cases {
		if got := fmtSize(in); got != want {
			t.Fatalf("fmtSize(%d) = %q, want %q", in, got, want)
		}
	}
}
