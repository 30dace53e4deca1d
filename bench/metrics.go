package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"falcon/internal/stats"
)

// metricDef names one metric of the benchmark. The two tables below are the
// single source of truth: BENCHMARK.json repeats them (bench_test.go checks
// that the two agree) and -compare reads the bounds from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median a run may be worse by
	// Clock says which clock the number is read from: "host" (wall time of
	// the simulator process), "sim" (simulated time, exact for a seed) or
	// "count" (an exact event/op count, also exact for a seed).
	Clock string
}

// endToEnd lists what a user of the simulator sees, same names on every
// workload. README.md explains each bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host"},
	{"events_per_sec", "1/s", "higher", 0.25, "host"},
	{"host_ns_per_op", "ns", "lower", 0.25, "host"},
	{"events_per_op", "count", "lower", 0.05, "count"},
	{"allocs_per_op_plus1", "count", "lower", 0.10, "count"},
	{"heap_bytes_per_conn", "B", "lower", 0.08, "host"},
	{"heap_live_mb", "MB", "lower", 0.25, "host"},
	{"sim_goodput_gbps", "Gbps", "higher", 0.10, "sim"},
	{"sim_op_p50_us", "us", "lower", 0.20, "sim"},
	{"sim_op_p99_us", "us", "lower", 0.15, "sim"},
}

// perLayer lists the traced-pass metrics, "<layer>.<name>". They carry no
// bound: they explain a movement of an end-to-end metric, they do not gate.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0, "count"},
	{"sim.pending_max", "count", "lower", 0, "count"},
	{"sim.event_ns_p50", "ns", "lower", 0, "host"},
	{"sim.event_ns_p99", "ns", "lower", 0, "host"},
	{"sim.sched_ns_per_event", "ns", "lower", 0, "host"},
	{"sim.share_est", "%", "lower", 0, "host"},
	{"sim.bare_event_ns", "ns", "lower", 0, "host"},
	{"sim.bare_event_pct", "%", "lower", 0, "host"},

	{"netsim.frame_hops", "count", "lower", 0, "count"},
	{"netsim.hops_per_pkt", "count", "lower", 0, "count"},
	{"netsim.ns_per_hop", "ns", "lower", 0, "host"},
	{"netsim.share_est", "%", "lower", 0, "host"},
	{"routing.uplink_spread_pct", "%", "lower", 0, "count"},
	{"netsim.queue_drops", "count", "lower", 0, "count"},
	{"netsim.random_drops", "count", "lower", 0, "count"},
	{"netsim.ecn_marks", "count", "lower", 0, "count"},
	{"netsim.max_queue_kb", "KB", "lower", 0, "count"},

	{"nic.packets", "count", "lower", 0, "count"},
	{"nic.admit_ns_per_pkt", "ns", "lower", 0, "host"},
	{"nic.handle_frame_ns_per_pkt", "ns", "lower", 0, "host"},
	{"nic.share_est", "%", "lower", 0, "host"},
	{"nic.cache_hit_ratio", "ratio", "higher", 0, "count"},
	{"nic.conn_wait_us_per_pkt", "us", "lower", 0, "sim"},

	{"pdl.data_pkts", "count", "lower", 0, "count"},
	{"pdl.acks_per_data", "ratio", "lower", 0, "count"},
	{"pdl.ns_per_pkt", "ns", "lower", 0, "host"},
	{"pdl.share_est", "%", "lower", 0, "host"},
	{"pdl.retx_ratio", "ratio", "lower", 0, "count"},
	{"pdl.retx_rack", "count", "lower", 0, "count"},
	{"pdl.retx_tlp", "count", "lower", 0, "count"},
	{"pdl.retx_rto", "count", "lower", 0, "count"},
	{"pdl.dup_ratio", "ratio", "lower", 0, "count"},
	{"pdl.nacks", "count", "lower", 0, "count"},
	{"pdl.rx_window_drops", "count", "lower", 0, "count"},

	{"tl.txns", "count", "lower", 0, "count"},
	{"tl.ns_per_txn", "ns", "lower", 0, "host"},
	{"tl.share_est", "%", "lower", 0, "host"},
	{"tl.backpressured", "count", "lower", 0, "count"},
	{"tl.rnr_retries", "count", "lower", 0, "count"},
	{"tl.completed_error", "count", "lower", 0, "count"},

	{"fae.events", "count", "lower", 0, "count"},
	{"fae.events_per_pkt", "ratio", "lower", 0, "count"},
	{"fae.ns_per_event", "ns", "lower", 0, "host"},
	{"fae.repaths", "count", "lower", 0, "count"},
	{"fae.share_est", "%", "lower", 0, "host"},

	{"rdma.post_ns_per_op", "ns", "lower", 0, "host"},
	{"rdma.target_ns_per_call", "ns", "lower", 0, "host"},
	{"rdma.complete_ns_per_op", "ns", "lower", 0, "host"},
	{"rdma.segments_per_op", "count", "lower", 0, "count"},
	{"rdma.allocs_per_read", "count", "lower", 0, "count"},
	{"rdma.allocs_per_write", "count", "lower", 0, "count"},
	{"rdma.read_p50_us", "us", "lower", 0, "sim"},
	{"rdma.read_p99_us", "us", "lower", 0, "sim"},
	{"rdma.write_p50_us", "us", "lower", 0, "sim"},
	{"rdma.write_p99_us", "us", "lower", 0, "sim"},

	{"workload.issue_ns_per_op", "ns", "lower", 0, "host"},
	{"workload.share_est", "%", "lower", 0, "host"},
	{"workload.backpressure_retries", "count", "lower", 0, "count"},
	{"workload.op_fail_ratio", "ratio", "lower", 0, "count"},
	{"workload.sim_op_samples", "count", "higher", 0, "count"},

	{"runtime.gc_cpu_pct", "%", "lower", 0, "host"},
	{"runtime.gc_cycles", "count", "lower", 0, "host"},

	{"trace.overhead_pct", "%", "lower", 0, "host"},
	{"trace.coverage_pct", "%", "higher", 0, "host"},
	{"trace.unattributed_pct", "%", "lower", 0, "host"},
	{"trace.spans", "count", "higher", 0, "count"},
}

// values maps a metric name to its measured value.
type values map[string]float64

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of defs once, by name with its unit, and
// returns the result object. A metric missing from v, or one that is NaN or
// infinite, is a harness bug and is reported as an error.
func report(w io.Writer, defs []metricDef, v values) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, x)
		}
		fmt.Fprintf(w, "%-32s %s %s\n", d.Name, strconv.FormatFloat(x, 'g', -1, 64), d.Unit)
		out[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not defined", name)
		}
	}
	return out, nil
}

func (r result) writeLine(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[stats.NearestRank(len(sorted), p)])
}
