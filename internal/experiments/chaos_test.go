package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestStormDeterminism is the core of the storm gate: two same-seed storm
// campaigns must produce cell-identical tables — the whole chaos layer is
// exact-class, so any drift here is a behavior change.
func TestStormDeterminism(t *testing.T) {
	t.Parallel()
	a := FigStorm(Options{}, 2*time.Millisecond)
	b := FigStorm(Options{}, 2*time.Millisecond)
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("same-seed storm campaigns diverged:\n%v\n%v", a.Rows, b.Rows)
	}
	c := FigEndpointFault(Options{}, 4*time.Millisecond)
	d := FigEndpointFault(Options{}, 4*time.Millisecond)
	if !reflect.DeepEqual(c.Rows, d.Rows) {
		t.Fatalf("endpoint-fault runs diverged:\n%v\n%v", c.Rows, d.Rows)
	}
}

// TestStormLedgerHolds asserts the frame-conservation ledger closes for
// every storm scenario: the last cell of every row is the ledger verdict.
func TestStormLedgerHolds(t *testing.T) {
	t.Parallel()
	for _, tb := range []interface {
		rows() [][]string
		title() string
	}{tableCheck{FigStorm(Options{}, 2*time.Millisecond)}, tableCheck{FigEndpointFault(Options{}, 4*time.Millisecond)}} {
		for _, row := range tb.rows() {
			if row[len(row)-1] != "yes" {
				t.Errorf("%s: ledger unbalanced in row %v", tb.title(), row)
			}
		}
	}
}

type tableCheck struct{ t *Table }

func (c tableCheck) rows() [][]string { return c.t.Rows }
func (c tableCheck) title() string    { return c.t.Title }

// TestStormSeedOverride pins the -storm flag semantics: a non-zero
// StormSeed narrows the campaign to that seed; 0 keeps the default trio.
func TestStormSeedOverride(t *testing.T) {
	t.Parallel()
	if got := (Options{StormSeed: 99}).stormSeeds(); len(got) != 1 || got[0] != 99 {
		t.Fatalf("override seeds = %v, want [99]", got)
	}
	if got := (Options{}).stormSeeds(); len(got) != 3 {
		t.Fatalf("default seeds = %v, want the default trio", got)
	}
}

// TestEndpointFaultOutcomes pins each fault class's qualitative outcome:
// transient faults recover with every connection surviving; crash with
// teardown kills both ends (the peer through its RTO budget) and cannot
// recover goodput.
func TestEndpointFaultOutcomes(t *testing.T) {
	t.Parallel()
	tb := FigEndpointFault(Options{}, 4*time.Millisecond)
	if len(tb.Rows) != 6 {
		t.Fatalf("got %d scenarios, want 6", len(tb.Rows))
	}
	col := func(name string) int {
		for i, c := range tb.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	recovered, ok, dead := col("recovered"), col("conns ok"), col("conns dead")
	for _, row := range tb.Rows {
		name := row[0]
		if name == "crash_teardown" {
			if row[recovered] != "no" || row[dead] != "2" {
				t.Errorf("crash_teardown: want no recovery and both conns dead, got %v", row)
			}
			continue
		}
		if row[recovered] != "yes" {
			t.Errorf("%s: transient fault did not recover: %v", name, row)
		}
		if row[ok] != "2" || row[dead] != "0" {
			t.Errorf("%s: transient fault killed a connection: %v", name, row)
		}
	}
}

// TestStormSweepShort runs a short storm per seed — the -race sweep
// `make check` executes — asserting only the invariants, not the
// numbers: determinism is TestStormDeterminism's job.
func TestStormSweepShort(t *testing.T) {
	t.Parallel()
	var o Options
	for _, seed := range o.stormSeeds() {
		seed := seed
		plan := stormPlanForTest(seed, 2*time.Millisecond)
		rep := stormFalconRun(o.row("falcon", seed), plan, 2*time.Millisecond)
		if !rep.Ledger.Balanced() {
			t.Errorf("seed %d: falcon ledger unbalanced: %s", seed, rep.Ledger)
		}
		if rep.Completed == 0 {
			t.Errorf("seed %d: no falcon ops completed", seed)
		}
		rr := stormRoceRun(o.row("roce", seed), plan, 2*time.Millisecond)
		if !rr.Ledger.Balanced() {
			t.Errorf("seed %d: roce ledger unbalanced: %s", seed, rr.Ledger)
		}
	}
}
