package experiments

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// stripTimings removes the wall-time annotations, the only part of the
// output allowed to differ between runs.
func stripTimings(s string) string {
	return regexp.MustCompile(`\(\S+ in [^)]+\)`).ReplaceAllString(s, "")
}

// pickEntries returns a small fast subset spanning simulator-backed and
// analytic experiments.
func pickEntries(t *testing.T, names ...string) []Entry {
	t.Helper()
	byName := map[string]Entry{}
	for _, e := range Registry() {
		byName[e.Name] = e
	}
	var out []Entry
	for _, n := range names {
		e, ok := byName[n]
		if !ok {
			t.Fatalf("registry has no entry %q", n)
		}
		out = append(out, e)
	}
	return out
}

// TestParallelRunnerMatchesSerial fans a subset of the registry across a
// worker pool and requires output identical to the serial run, modulo
// timing annotations: experiments must not share any mutable state. Run
// under -race (make race) this also proves the pool itself is clean.
func TestParallelRunnerMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	t.Parallel()
	entries := pickEntries(t, "fig18", "fig19", "fig21", "fig22a", "fig23")
	var serial, par bytes.Buffer
	repS := Run(entries, Options{Quick: true}, 1, &serial)
	repP := Run(entries, Options{Quick: true}, 4, &par)
	got, want := stripTimings(par.String()), stripTimings(serial.String())
	if got != want {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if repS.Parallel != 1 || repP.Parallel != 4 {
		t.Fatalf("reported pool widths = %d, %d", repS.Parallel, repP.Parallel)
	}
	if len(repP.Figures) != len(entries) {
		t.Fatalf("parallel report has %d figures, want %d", len(repP.Figures), len(entries))
	}
	for i, fr := range repP.Figures {
		if fr.Name != entries[i].Name {
			t.Fatalf("figure %d = %q, want %q (registry order)", i, fr.Name, entries[i].Name)
		}
		// Each figure counts its own simulators' events, so a pool
		// attributes exactly what a serial run does.
		if fr.Events != repS.Figures[i].Events {
			t.Fatalf("%s: parallel run counted %d events, serial %d", fr.Name, fr.Events, repS.Figures[i].Events)
		}
	}
	if repP.Events != repS.Events || repS.Events == 0 {
		t.Fatalf("total events: parallel %d, serial %d", repP.Events, repS.Events)
	}
}

// TestSerialRunnerAttributesEvents checks that a serial run attributes
// simulator events to the figure that delivered them.
func TestSerialRunnerAttributesEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	t.Parallel()
	entries := pickEntries(t, "fig22b") // simulator-backed, fast
	var out bytes.Buffer
	rep := Run(entries, Options{Quick: true}, 1, &out)
	if rep.Figures[0].Events == 0 || rep.Events == 0 {
		t.Fatalf("serial run attributed no events: %+v", rep)
	}
	if rep.Figures[0].EventsPerSec <= 0 || rep.Figures[0].NsPerEvent <= 0 {
		t.Fatalf("derived rates missing: %+v", rep.Figures[0])
	}
	if !strings.Contains(out.String(), "(fig22b in ") {
		t.Fatalf("missing timing annotation:\n%s", out.String())
	}
}
