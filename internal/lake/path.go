package lake

import "strings"

// Metric-path dimension grammar. Every cell in the lake is keyed by a
// slash-separated hierarchical name; METRICS.md is the authoritative
// reference. The shape, as emitted by the telemetry collectors
// (internal/telemetry/sinks.go) and the falconbench harness, is
//
//	[figure] [dim...] [entity] layer metric [stat]
//
// e.g. "fig10/ReadReq/drop0.0/fwd/port/down_drops" parses as figure
// fig10, dims {ReadReq, drop0.0, fwd}, layer port, metric down_drops.
// The layer is the first segment (scanning left to right) matching a
// known layer token — pdl, tl, nic, port, fae, routing, chaos, shard,
// or the synthetic bench layer the indexer gives bench records.
// Histogram-backed metrics carry one of the fixed stat suffixes (count,
// mean, p50, p99, max) the registry expands histograms into. Time-series
// column names
// ("conn0/srtt_ns") have no layer token: their leading segments are
// entity dims and the final segment is the metric.
type Path struct {
	// Raw is the unparsed metric path.
	Raw string
	// Figure is the leading experiment dimension ("fig10", "table4")
	// when present, else "".
	Figure string
	// Dims are the experiment dimensions between figure and layer:
	// sub-experiment, swept parameter, entity (port or connection
	// name).
	Dims []string
	// Layer is the emitting layer, one of layerTokens ("pdl", "port",
	// "bench", ...), or "" for layer-less paths (series columns).
	Layer string
	// Metric is the base metric name ("down_drops", "fabric_delay_ns").
	Metric string
	// Stat is the histogram expansion suffix ("count", "mean", "p50",
	// "p99", "max") or "".
	Stat string
}

// layerTokens are the layer tags collectors insert before the metric
// name, plus the synthetic layer the indexer gives bench records
// ("bench").
var layerTokens = map[string]bool{
	"pdl":     true,
	"tl":      true,
	"nic":     true,
	"port":    true,
	"fae":     true,
	"routing": true,
	"chaos":   true,
	"shard":   true,
	"bench":   true,
}

// statSuffixes are the names Registry.Snapshot expands each histogram
// into (internal/telemetry).
var statSuffixes = map[string]bool{
	"count": true,
	"mean":  true,
	"p50":   true,
	"p99":   true,
	"max":   true,
}

// ParsePath parses a metric path into its typed dimensions. Parsing
// never fails: unrecognized shapes degrade to Dims + Metric with an
// empty Layer.
func ParsePath(raw string) Path {
	p := Path{Raw: raw}
	segs := strings.Split(raw, "/")
	if len(segs) == 1 {
		p.Metric = segs[0]
		return p
	}

	// Locate the layer token. Everything before it is dimensions,
	// everything after is metric (+ optional stat suffix).
	layerAt := -1
	for i, s := range segs[:len(segs)-1] { // the metric can't be the layer
		if layerTokens[s] {
			layerAt = i
			break
		}
	}

	head := segs
	if layerAt >= 0 {
		p.Layer = segs[layerAt]
		head = segs[:layerAt]
		tail := segs[layerAt+1:]
		if len(tail) >= 2 && statSuffixes[tail[len(tail)-1]] {
			p.Stat = tail[len(tail)-1]
			tail = tail[:len(tail)-1]
		}
		p.Metric = strings.Join(tail, "/")
	} else {
		p.Metric = segs[len(segs)-1]
		head = segs[:len(segs)-1]
	}

	if len(head) > 0 && (strings.HasPrefix(head[0], "fig") || strings.HasPrefix(head[0], "table")) {
		p.Figure = head[0]
		head = head[1:]
	}
	if len(head) > 0 {
		p.Dims = head
	}
	return p
}

// Class is the determinism class of a metric, which sets how the
// differ compares it across runs (METRICS.md "Determinism classes").
type Class int

const (
	// ClassExact metrics are covered by the determinism contract:
	// event counts, byte counts, occupancy integers. Any cross-run
	// difference is a behavior change and is flagged exactly.
	ClassExact Class = iota
	// ClassTiming metrics are derived from virtual-clock timing or
	// fractional controller state (ns values, cwnds, histogram
	// means/percentiles). They are deterministic per seed but drift
	// legitimately under intentional behavior changes, so the differ
	// applies a relative-error tolerance band.
	ClassTiming
	// ClassPerf metrics are the host-measured half of bench records
	// (pinnedClass). They vary run to run on real hardware; the differ
	// flags only regressions beyond a loose tolerance, in the metric's
	// "worse" direction.
	ClassPerf
)

// String names the class as METRICS.md spells it.
func (c Class) String() string {
	switch c {
	case ClassTiming:
		return "timing"
	case ClassPerf:
		return "perf"
	default:
		return "exact"
	}
}

// timingMetrics are the non-suffix-marked metrics carrying fractional
// or timing-derived values (congestion-controller state and histogram
// means). Everything else timing-classed is caught by the _ns/_ms
// unit suffix or the mean stat.
var timingMetrics = map[string]bool{
	"fcwnd": true,
	"ncwnd": true,
	"alpha": true,
}

// pinnedClass fixes the class of a whole layer, or — keyed
// "layer/metric" — of one metric in a layer, ahead of the unit-suffix
// rules:
//
//   - chaos: every value, including recovery_gap_ns, is an integer
//     derived from virtual-clock samples under the same-seed storm
//     determinism contract.
//   - shard: partition delivery and cross-boundary counts follow from
//     the event stream, and lookahead_ns is a topology constant, not a
//     measured duration.
//   - bench: bench records. Op counts, events_per_op and the sim_*
//     metrics repeat per seed; the host-measured metrics below are perf.
var pinnedClass = map[string]Class{
	"chaos":                     ClassExact,
	"shard":                     ClassExact,
	"bench":                     ClassExact,
	"bench/setup_s":             ClassPerf,
	"bench/events_per_sec":      ClassPerf,
	"bench/host_ns_per_op":      ClassPerf,
	"bench/allocs_per_op_plus1": ClassPerf,
	"bench/heap_bytes_per_conn": ClassPerf,
	"bench/heap_live_mb":        ClassPerf,
}

// Class returns the determinism class of the parsed metric.
func (p Path) Class() Class {
	if c, ok := pinnedClass[p.Layer+"/"+p.Metric]; ok {
		return c
	}
	if c, ok := pinnedClass[p.Layer]; ok {
		return c
	}
	if strings.HasSuffix(p.Metric, "_ns") || strings.HasSuffix(p.Metric, "_ms") {
		return ClassTiming
	}
	if timingMetrics[p.Metric] || p.Stat == "mean" {
		return ClassTiming
	}
	return ClassExact
}
