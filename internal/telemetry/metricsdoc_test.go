package telemetry_test

// The METRICS.md honesty gate: build a real stack, attach every
// telemetry collector and tracker this package exports, and assert
// every metric name they emit is documented in METRICS.md, and every
// documented layer/metric and series: row is emitted. A new metric
// added to sinks.go without a doc row fails here, and so does a row
// left behind by a deleted metric, so the reference cannot silently
// rot.

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"falcon/internal/chaos"
	"falcon/internal/core"
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

// layerTokens are the layer tags the collectors insert before the
// metric name (METRICS.md §1).
var layerTokens = map[string]bool{
	"pdl": true, "tl": true, "nic": true, "port": true, "fae": true, "routing": true, "chaos": true,
}

// statSuffixes are the names a snapshot expands each histogram into
// (METRICS.md §6).
var statSuffixes = map[string]bool{"count": true, "mean": true, "p50": true, "p99": true, "max": true}

// splitMetric splits a snapshot metric name at its first layer token
// into the documented key, layer/metric, and the histogram stat suffix,
// if any. ok is false when no segment before the last is a layer token.
func splitMetric(name string) (key, stat string, ok bool) {
	segs := strings.Split(name, "/")
	for i, s := range segs[:len(segs)-1] {
		if !layerTokens[s] {
			continue
		}
		tail := segs[i+1:]
		if len(tail) >= 2 && statSuffixes[tail[len(tail)-1]] {
			stat, tail = tail[len(tail)-1], tail[:len(tail)-1]
		}
		return s + "/" + strings.Join(tail, "/"), stat, true
	}
	return "", "", false
}

// TestMetricsDocComplete is the completeness gate described above.
func TestMetricsDocComplete(t *testing.T) {
	snapNames, seriesCols := emittedMetricNames(t)
	if len(snapNames) < 50 {
		t.Fatalf("only %d metrics emitted; collector wiring broken?", len(snapNames))
	}
	tokens := docTokens(t)

	emitted := make(map[string]bool)
	for _, name := range snapNames {
		key, stat, ok := splitMetric(strings.TrimPrefix(name, "doc/"))
		if !ok {
			t.Errorf("metric %q has no layer token; the METRICS.md grammar cannot place it", name)
			continue
		}
		emitted[key] = true
		if stat != "" {
			emitted["/"+stat] = true
		}
	}
	for _, col := range seriesCols {
		// Series columns are entity/metric: the leaf is documented.
		emitted["series:"+col[strings.LastIndexByte(col, '/')+1:]] = true
	}

	var missing, stale []string
	for name := range emitted {
		if !tokens[name] {
			missing = append(missing, name)
		}
	}
	for tok := range tokens {
		layer, _, _ := strings.Cut(tok, "/")
		leaf, series := strings.CutPrefix(tok, "series:")
		documented := (series && leaf != "") || (layerTokens[layer] && strings.Count(tok, "/") == 1)
		if documented && !emitted[tok] {
			stale = append(stale, tok)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("METRICS.md is missing %d metric(s) the registry emits:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("METRICS.md documents %d metric(s) the registry does not emit:\n  %s",
			len(stale), strings.Join(stale, "\n  "))
	}
}
