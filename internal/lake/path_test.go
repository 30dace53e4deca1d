package lake

import (
	"reflect"
	"testing"
)

func TestParsePath(t *testing.T) {
	cases := []struct {
		raw  string
		want Path
	}{
		{
			raw: "fig10/ReadReq/drop0.0/fwd/port/down_drops",
			want: Path{
				Figure: "fig10", Dims: []string{"ReadReq", "drop0.0", "fwd"},
				Layer: "port", Metric: "down_drops",
			},
		},
		{
			raw: "fig10/ReadReq/drop0.0/pdl/acks_coalesced",
			want: Path{
				Figure: "fig10", Dims: []string{"ReadReq", "drop0.0"},
				Layer: "pdl", Metric: "acks_coalesced",
			},
		},
		{
			raw: "fig13/qps20/client0/fae/fabric_delay_ns/p99",
			want: Path{
				Figure: "fig13", Dims: []string{"qps20", "client0"},
				Layer: "fae", Metric: "fabric_delay_ns", Stat: "p99",
			},
		},
		{
			// Series column: no layer token.
			raw:  "conn0/srtt_ns",
			want: Path{Dims: []string{"conn0"}, Metric: "srtt_ns"},
		},
		{
			raw:  "server_downlink/queued_bytes",
			want: Path{Dims: []string{"server_downlink"}, Metric: "queued_bytes"},
		},
		{
			// Synthetic bench layer from bench record ingest.
			raw:  "oprate_small/seed1/bench/allocs_per_op_plus1",
			want: Path{Dims: []string{"oprate_small", "seed1"}, Layer: "bench", Metric: "allocs_per_op_plus1"},
		},
		{
			// "perf" is no layer token: the segment is a dimension.
			raw:  "fig1/perf/wall_ms",
			want: Path{Figure: "fig1", Dims: []string{"perf"}, Metric: "wall_ms"},
		},
		{
			// max_queue_bytes must not be mistaken for a "max" stat.
			raw: "fig13/qps20/server_downlink/port/max_queue_bytes",
			want: Path{
				Figure: "fig13", Dims: []string{"qps20", "server_downlink"},
				Layer: "port", Metric: "max_queue_bytes",
			},
		},
		{
			// Routing layer: per-uplink spread cells from CollectUplinks.
			raw: "figRouting/spray/tor0/up2/routing/tx_frames",
			want: Path{
				Figure: "figRouting", Dims: []string{"spray", "tor0", "up2"},
				Layer: "routing", Metric: "tx_frames",
			},
		},
		{
			raw:  "bare_metric",
			want: Path{Metric: "bare_metric"},
		},
	}
	for _, c := range cases {
		got := ParsePath(c.raw)
		c.want.Raw = c.raw
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParsePath(%q) = %+v, want %+v", c.raw, got, c.want)
		}
	}
}

func TestPathClass(t *testing.T) {
	cases := []struct {
		raw  string
		want Class
	}{
		{"fig10/Write/drop1.0/pdl/data_retransmits", ClassExact},
		{"fig10/Write/drop1.0/pdl/srtt_ns", ClassTiming},
		{"fig10/Write/drop1.0/pdl/fcwnd", ClassTiming},
		{"fig10/Write/drop1.0/pdl/ncwnd", ClassTiming},
		{"fig15/load60/conn0/tl/alpha", ClassTiming},
		{"fig13/qps20/client0/fae/fabric_delay_ns/p99", ClassTiming},
		{"fig13/qps20/client0/fae/acked_packets", ClassExact},
		{"fig10/Write/drop1.0/fwd/port/tx_bytes", ClassExact},
		{"w/seed1/bench/events_per_sec", ClassPerf},
		{"w/seed1/bench/allocs_per_op_plus1", ClassPerf},
		{"conn0/srtt_ns", ClassTiming},
		{"conn0/retransmits", ClassExact},
		{"fwd/queue_delay_ns", ClassTiming},
		{"fwd/queue_drops", ClassExact},
		{"figRouting/adaptive/tor0/routing/spread_pct", ClassExact},
		{"figGrayFailure/ecmp/flap/tor0/routing/down_drops_total", ClassExact},
		{"figStorm/storm71/chaos/recovery_gap_ns", ClassExact},
		{"fabric_scale/seed281/bench/events_per_op", ClassExact},
		{"fabric_scale/seed281/bench/sim_op_p99_us", ClassExact},
		{"fabric_scale/seed281/bench/attempted", ClassExact},
		{"fabric_scale/seed281/bench/host_ns_per_op", ClassPerf},
		{"fabric_scale/seed281/bench/setup_s", ClassPerf},
		{"fabric_scale/seed281/bench/heap_live_mb", ClassPerf},
	}
	for _, c := range cases {
		if got := ParsePath(c.raw).Class(); got != c.want {
			t.Errorf("Class(%q) = %v, want %v", c.raw, got, c.want)
		}
	}
}

func TestMatchSegments(t *testing.T) {
	cases := []struct {
		pat, path string
		want      bool
	}{
		{"fig10/*/drop1.0/pdl/retx_rack", "fig10/Write/drop1.0/pdl/retx_rack", true},
		{"fig10/*/drop1.0/pdl/retx_rack", "fig10/Write/drop0.0/pdl/retx_rack", false},
		{"fig10/**", "fig10/Write/drop1.0/pdl/retx_rack", true},
		{"**/srtt_ns", "fig10/Write/drop1.0/pdl/srtt_ns", true},
		{"**/srtt_ns", "conn0/srtt_ns", true},
		{"**/srtt_ns", "srtt_ns", true},
		{"**", "anything/at/all", true},
		{"fig10/**/port/tx_bytes", "fig10/Write/drop0.0/fwd/port/tx_bytes", true},
		{"fig10/**/port/tx_bytes", "fig10/Write/drop0.0/pdl/tx_unacked_req", false},
		{"a/*", "a", false},
		{"a/**", "a", true},
		{"a", "a/b", false},
	}
	for _, c := range cases {
		got := matchSegments(splitPat(c.pat), splitPat(c.path))
		if got != c.want {
			t.Errorf("match(%q, %q) = %v, want %v", c.pat, c.path, got, c.want)
		}
	}
}

func splitPat(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '/' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
