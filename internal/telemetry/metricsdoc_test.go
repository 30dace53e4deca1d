package telemetry_test

// The METRICS.md honesty gate: build a real stack, attach every
// telemetry collector and tracker this package exports, and assert
// every metric name they emit is documented in METRICS.md. A new
// metric added to sinks.go without a doc row fails here, so the
// reference cannot silently rot. The inverse direction (names
// documented but never emitted) is deliberately not enforced: the doc
// also covers the bench layer cells the lake indexer synthesizes from
// bench records.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"falcon/internal/chaos"
	"falcon/internal/core"
	"falcon/internal/lake"
	"falcon/internal/netsim"
	"falcon/internal/sim"
	"falcon/internal/telemetry"
)

// emittedMetricNames builds a two-node cluster, attaches every
// collector under prefix "doc" and both series trackers, and returns
// (snapshot metric names, series column names).
func emittedMetricNames(t *testing.T) ([]string, []string) {
	t.Helper()
	s := sim.New(7)
	topo, fwd := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond})
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, _ := cl.Connect(a, b, core.DefaultConnConfig())

	suite := telemetry.NewSuite()
	reg := suite.Registry()
	telemetry.CollectPDL(reg, "doc", epA.PDL())
	telemetry.CollectTL(reg, "doc", epA.TL())
	telemetry.CollectNIC(reg, "doc", a.NIC())
	telemetry.CollectPort(reg, "doc/fwd", fwd)
	telemetry.CollectUplinks(reg, "doc/tor0", []*netsim.Port{fwd, topo.Hosts[0].Uplink()})
	telemetry.CollectFAE(reg, "doc", a.Engine())
	telemetry.ObserveFAE(reg, "doc", a.Engine())
	telemetry.CollectChaos(reg, "doc", &chaos.Report{})

	sp := suite.Sampler("doc", s, time.Millisecond)
	telemetry.TrackPDL(sp, "conn", epA.PDL())
	telemetry.TrackPort(sp, "fwd", fwd)

	snap := suite.Snapshot(0)
	var names []string
	for _, m := range snap.Metrics {
		names = append(names, m.Name)
	}
	return names, sp.Names()
}

// docTokens extracts every `backtick-quoted` token from METRICS.md.
func docTokens(t *testing.T) map[string]bool {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
	data, err := os.ReadFile(filepath.Join(dir, "METRICS.md"))
	if err != nil {
		t.Fatalf("METRICS.md missing: %v", err)
	}
	tokens := make(map[string]bool)
	// Tokens cannot span lines, so ``` code fences don't desync the
	// backtick pairing.
	for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(string(data), -1) {
		tokens[m[1]] = true
	}
	return tokens
}

// TestMetricsDocComplete is the completeness gate described above.
func TestMetricsDocComplete(t *testing.T) {
	snapNames, seriesCols := emittedMetricNames(t)
	if len(snapNames) < 50 {
		t.Fatalf("only %d metrics emitted; collector wiring broken?", len(snapNames))
	}
	tokens := docTokens(t)

	var missing []string
	for _, name := range snapNames {
		rest := strings.TrimPrefix(name, "doc/")
		// Parse with the lake grammar: the documented key is
		// layer/metric, with histogram stat suffixes documented once
		// as a generic expansion rule.
		p := lake.ParsePath(rest)
		if p.Layer == "" {
			t.Errorf("metric %q has no layer token; the METRICS.md grammar cannot classify it", name)
			continue
		}
		key := p.Layer + "/" + p.Metric
		if !tokens[key] {
			missing = append(missing, key)
		}
		if p.Stat != "" && !tokens["/"+p.Stat] {
			missing = append(missing, key+" stat suffix /"+p.Stat)
		}
	}
	for _, col := range seriesCols {
		p := lake.ParsePath(col)
		if !tokens["series:"+p.Metric] {
			missing = append(missing, "series:"+p.Metric)
		}
	}
	if len(missing) > 0 {
		dedup := make(map[string]bool)
		var out []string
		for _, m := range missing {
			if !dedup[m] {
				dedup[m] = true
				out = append(out, m)
			}
		}
		t.Fatalf("METRICS.md is missing %d metric(s) the registry emits:\n  %s",
			len(out), strings.Join(out, "\n  "))
	}
}
