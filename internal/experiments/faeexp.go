package experiments

import (
	"fmt"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/fae"
	"falcon/internal/netsim"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// Fig22a reproduces "FAE event rate vs connection count" for the three
// state-management designs of §5.3: stateless (state embedded in events),
// naive stateful (state fetched per event), and stateful with event-queue
// prefetching.
func Fig22a() *Table {
	t := &Table{
		Title:   "Figure 22a: FAE event rate (M events/s) vs connections, 64B state",
		Columns: []string{"connections", "stateless", "stateful", "stateful+prefetch"},
	}
	m := fae.DefaultCacheModel()
	for _, conns := range []int{1000, 10_000, 100_000, 128_000, 500_000, 1_000_000} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", conns),
			f1(m.EventRate(fae.Stateless, conns, 64) / 1e6),
			f1(m.EventRate(fae.Stateful, conns, 64) / 1e6),
			f1(m.EventRate(fae.StatefulPrefetch, conns, 64) / 1e6),
		})
	}
	return t
}

// Fig23 reproduces "FAE state sensitivity": event rate at 128K connections
// as the per-connection algorithm state grows from 64B to 512B.
func Fig23() *Table {
	t := &Table{
		Title:   "Figure 23: FAE event rate (M events/s) vs state size, 128K connections",
		Columns: []string{"state bytes", "stateful+prefetch", "stateful"},
	}
	m := fae.DefaultCacheModel()
	for _, bytes := range []int{64, 128, 256, 512} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", bytes),
			f1(m.EventRate(fae.StatefulPrefetch, 128_000, bytes) / 1e6),
			f1(m.EventRate(fae.Stateful, 128_000, bytes) / 1e6),
		})
	}
	return t
}

// Fig22b reproduces "impact of slow FAE": an incast (2 senders x 20 QPs of
// 1MB writes) with artificial FAE event-turnaround delays. Falcon tolerates
// moderate FAE lag; fabric delay only inflates once responses lag by tens
// of microseconds.
//
// Scaled down from the paper's 2x100 QPs.
func Fig22b(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 22b: fabric RTT vs FAE response delay (2x20 QP incast, 1MB writes)",
		Columns: []string{"FAE delay us", "p50 RTT", "p99 RTT", "p99/baseline"},
	}
	run := func(name string, delay time.Duration) (time.Duration, time.Duration) {
		r := o.row(name, 22)
		s := r.s
		topo := netsim.Star(s, 3, hostLink)
		ncfg := core.DefaultNodeConfig()
		ncfg.FAE.ResponseDelay = delay
		cl, nodes := falconNodes(r, topo.Hosts, ncfg)
		for _, client := range nodes[1:] {
			for q := 0; q < 20; q++ {
				qa, _ := qpPair(cl, client, nodes[0], multipathConn())
				// Bursty on-off traffic: incast onsets are where
				// congestion control must adapt, so FAE lag shows
				// up as queue overshoot.
				workload.NewPoisson(s, s.Rand(), 1200, 1<<30, func() {
					qa.Write(0, 0, nil, 1<<20, nil)
				}).Start()
			}
		}
		// Sample every connection's smoothed RTT periodically; the
		// distribution over time is the fabric-RTT proxy the paper
		// plots.
		var lat stats.Series
		var sample func()
		sample = func() {
			sampleSRTT(cl, &lat)
			s.After(100*time.Microsecond, sample)
		}
		s.After(200*time.Microsecond, sample)
		s.RunUntil(sim.Time(runFor))
		return lat.DurationPercentile(50), lat.DurationPercentile(99)
	}
	_, base99 := run("baseline", 0)
	for _, d := range []time.Duration{0, 8 * time.Microsecond, 16 * time.Microsecond, 32 * time.Microsecond, 64 * time.Microsecond, 128 * time.Microsecond, 256 * time.Microsecond} {
		p50, p99 := run("delay"+f1(d.Seconds()*1e6), d)
		t.Rows = append(t.Rows, []string{
			f1(d.Seconds() * 1e6), dur(p50), dur(p99), f2(float64(p99) / float64(base99)),
		})
	}
	return t
}

// sampleSRTT gathers the SRTT of every connection in the cluster.
func sampleSRTT(cl *core.Cluster, lat *stats.Series) {
	for _, ep := range cl.Endpoints() {
		if srtt := ep.PDL().SRTT(); srtt > 0 {
			lat.AddDuration(srtt)
		}
	}
}
