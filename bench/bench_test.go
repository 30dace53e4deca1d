package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smoke shrinks the benchmark so the whole file runs in a few seconds: one
// set-up per run and layer drivers a twentieth of their size.
func smoke(t *testing.T) {
	t.Helper()
	oldSetUps, oldScale := setUps, driverScale
	setUps, driverScale = 1, 0.05
	t.Cleanup(func() { setUps, driverScale = oldSetUps, oldScale })
}

// smokeDur is a simulated duration that takes sp about 0.3 s of host time.
func smokeDur(sp *spec) time.Duration { return sp.simPerSecond * 3 / 10 }

func endToEndRun(t *testing.T, name string, seed int64) result {
	t.Helper()
	sp := findSpec(name)
	res, err := runEndToEnd(sp, seed, smokeDur(sp), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Same seed twice: every exact count and every simulated-clock value is
// identical. Another seed: a different run.
func TestSeedDeterminesSimulatedMetrics(t *testing.T) {
	smoke(t)
	a, b, c := endToEndRun(t, "lossy_mixed", 7), endToEndRun(t, "lossy_mixed", 7), endToEndRun(t, "lossy_mixed", 8)
	if a.Attempted != b.Attempted || a.Attempted == c.Attempted {
		t.Errorf("ops attempted: seed 7 %d and %d, seed 8 %d", a.Attempted, b.Attempted, c.Attempted)
	}
	for _, d := range endToEnd {
		if d.Clock == "host" {
			continue
		}
		va, vb, vc := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value, c.Metrics[d.Name].Value
		if d.Name == "allocs_per_op_plus1" {
			continue // the Go runtime's own allocations are not the simulator's
		}
		if va != vb {
			t.Errorf("%s: %v and %v for the same seed", d.Name, va, vb)
		}
		if va == vc && d.Name != "sim_op_p50_us" {
			t.Errorf("%s: %v for two different seeds", d.Name, va)
		}
	}
}

// The traced pass sees the same simulation as the untraced pass of the same
// seed (runTraced reports a divergence as incorrect), and another seed gives
// another simulation.
func TestTracedPassIsExact(t *testing.T) {
	smoke(t)
	sp := findSpec("lossy_mixed")
	var ev [2]float64
	for i, seed := range []int64{7, 8} {
		res, err := runTraced(sp, seed, smokeDur(sp), "", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("seed %d: traced run is incorrect", seed)
		}
		ev[i] = res.Metrics["sim.events"].Value
	}
	if ev[0] == ev[1] {
		t.Errorf("sim.events: %v for seed 7 and for seed 8", ev[0])
	}
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json repeats the tables of metrics.go and workloads.go.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in workloads.go", i, w.Name, specs[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, metrics.go %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: %+v in BENCHMARK.json, %+v in metrics.go", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d]: %+v in BENCHMARK.json, %+v in metrics.go", i, m, d)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	lineRE = regexp.MustCompile(`^(\S+)\s+(\S+) (\S+)$`)
)

// One command prints every metric of BENCHMARK.json exactly once, by name
// with its unit, and ends with the result object holding the same metrics.
func TestEveryMetricPrintedOnceWithItsUnit(t *testing.T) {
	smoke(t)
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: not a legal name or unit", d.Name, d.Unit)
		}
		if _, dup := units[d.Name]; dup {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		units[d.Name] = d.Unit
	}
	printed := map[string]int{}
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", "oprate_small", "--seed", "3", "--seconds", "0.3", "--trace", trace}, &out, &errOut); code != 0 {
			t.Fatalf("-trace %s: exit %d\n%s%s", trace, code, out.String(), errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("-trace %s: last line is not the result object: %v", trace, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Errorf("-trace %s: correct %v, attempted %d, failed %d, %d metrics (want %d)", trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(defs))
		}
		for _, l := range lines[:len(lines)-1] {
			m := lineRE.FindStringSubmatch(l)
			if m == nil || units[m[1]] == "" {
				continue // a headline, not a metric
			}
			printed[m[1]]++
			if m[3] != units[m[1]] || res.Metrics[m[1]].Unit != m[3] {
				t.Errorf("%s printed with unit %q, defined with %q", m[1], m[3], units[m[1]])
			}
		}
	}
	for name := range units {
		if printed[name] != 1 {
			t.Errorf("%s printed %d times", name, printed[name])
		}
	}
}

// The harness recycles its op records and binds its callbacks once: on the
// workload with the cheapest ops, harness and stack together stay far below
// one allocation per op.
func TestHarnessDoesNotAllocatePerOp(t *testing.T) {
	smoke(t)
	res := endToEndRun(t, "oprate_small", 5)
	if a := res.Metrics["allocs_per_op_plus1"].Value - 1; a >= 0.05 {
		t.Errorf("%v allocations per op on oprate_small, want < 0.05", a)
	}
}

// Every workload builds, completes every op and passes its own checks at a
// smoke duration long enough for 1000 latency samples.
func TestWorkloadsAreCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1024-host fabric")
	}
	smoke(t)
	for _, sp := range specs {
		dur := sp.simPerSecond / 4
		if sp.name == "incast_conns" {
			dur = sp.simPerSecond // one op takes milliseconds there
		}
		var out bytes.Buffer
		res, err := runEndToEnd(sp, 11, dur, &out)
		if err != nil || !res.Correct || res.Failed != 0 {
			t.Errorf("%s: err %v, correct %v, failed %d\n%s", sp.name, err, res.Correct, res.Failed, out.String())
		}
	}
}

func TestCompareAppliesBoundsByDirection(t *testing.T) {
	set := func(eventsPerSec, p99 float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"oprate_small": {
			"events_per_sec": {eventsPerSec, eventsPerSec, eventsPerSec},
			"sim_op_p99_us":  {p99, p99, p99},
		}}
	}
	var bound, p99Bound float64
	for _, d := range endToEnd {
		switch d.Name {
		case "events_per_sec":
			bound = d.Bound
		case "sim_op_p99_us":
			p99Bound = d.Bound
		}
	}
	base := set(1e6, 10)
	for _, c := range []struct {
		name string
		b    map[string]map[string][]float64
		want int
	}{
		{"identical", set(1e6, 10), 0},
		{"faster and lower latency", set(2e6, 5), 0},
		{"slower within the bound", set(1e6*(1-bound/2), 10), 0},
		{"slower beyond the bound", set(1e6*(1-2*bound), 10), 1},
		{"latency beyond the bound", set(1e6, 10*(1+2*p99Bound)), 1},
	} {
		var out bytes.Buffer
		if got := compareSets(base, c.b, &out); got != c.want {
			t.Errorf("%s: compare returned %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}
