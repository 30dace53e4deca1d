package experiments

import (
	"bytes"
	"regexp"
	"strconv"
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
	figS := Run(entries, Options{Quick: true}, 1, &serial)
	figP := Run(entries, Options{Quick: true}, 4, &par)
	got, want := stripTimings(par.String()), stripTimings(serial.String())
	if got != want {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if len(figP) != len(entries) {
		t.Fatalf("parallel run reported %d figures, want %d", len(figP), len(entries))
	}
	var total uint64
	for i, fr := range figP {
		if fr.Name != entries[i].Name {
			t.Fatalf("figure %d = %q, want %q (registry order)", i, fr.Name, entries[i].Name)
		}
		// Each figure counts its own simulators' events, so a pool
		// attributes exactly what a serial run does.
		if fr.Events != figS[i].Events {
			t.Fatalf("%s: parallel run counted %d events, serial %d", fr.Name, fr.Events, figS[i].Events)
		}
		total += fr.Events
	}
	if total == 0 {
		t.Fatal("no events counted")
	}
}

// TestSerialRunnerAttributesEvents checks that a serial run attributes
// simulator events to the figure that delivered them, and that the
// annotation line carries the count.
func TestSerialRunnerAttributesEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	t.Parallel()
	entries := pickEntries(t, "fig22b") // simulator-backed, fast
	var out bytes.Buffer
	figs := Run(entries, Options{Quick: true}, 1, &out)
	if figs[0].Events == 0 {
		t.Fatalf("serial run attributed no events: %+v", figs[0])
	}
	m := regexp.MustCompile(`\(fig22b in \S+, (\d+) events\)`).FindStringSubmatch(out.String())
	if m == nil || m[1] != strconv.FormatUint(figs[0].Events, 10) {
		t.Fatalf("annotation should carry %d events:\n%s", figs[0].Events, out.String())
	}
}
