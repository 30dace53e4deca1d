package experiments

import (
	"fmt"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

// Fig24 reproduces "isolation via fine-grained backpressure" (§4.6, §6.2):
// one host runs a fast intra-rack flow alongside N slow flows whose target
// suffers an incast-induced slowdown. Slow flows hold Falcon resources
// longer; without backpressure they starve the fast flow. Reported: the
// fast flow's op-latency slowdown relative to running alone, for no /
// static / dynamic backpressure.
func Fig24(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 24: fast-flow slowdown vs slow-flow count, by backpressure policy",
		Columns: []string{"slow flows", "none", "static DT", "dynamic DT"},
	}
	baseline := fig24Run(o.row("alone", 24), 0, tl.BackpressureNone, runFor)
	for _, slow := range []int{10, 100, 300} {
		cell := fmt.Sprintf("slow%d/", slow)
		none := fig24Run(o.row(cell+"none", 24), slow, tl.BackpressureNone, runFor)
		static := fig24Run(o.row(cell+"static", 24), slow, tl.BackpressureStatic, runFor)
		dynamic := fig24Run(o.row(cell+"dynamic", 24), slow, tl.BackpressureDynamic, runFor)
		t.Rows = append(t.Rows, []string{
			f1(float64(slow)),
			f1(none.Seconds() / baseline.Seconds()),
			f1(static.Seconds() / baseline.Seconds()),
			f1(dynamic.Seconds() / baseline.Seconds()),
		})
	}
	return t
}

// fig24Run returns the fast flow's p99 op latency with `slow` slow flows
// sharing its host under the given backpressure mode.
func fig24Run(r *row, slow int, mode tl.BackpressureMode, runFor time.Duration) time.Duration {
	s := r.s
	// Hosts: 0 = the shared source, 1 = fast target (same rack), 2 =
	// slow target whose host interface is crawling (standing in for the
	// paper's periodic cross-rack incast).
	cl, n := falconNodes(r, netsim.Star(s, 3, hostLink).Hosts, core.DefaultNodeConfig())
	src, fastTgt, slowTgt := n[0], n[1], n[2]
	slowTgt.NIC().SetHostGbps(1) // the slowdown

	mkConn := func(dst *core.Node) *rdma.QP {
		cfg := multipathConn()
		cfg.TL.Backpressure = mode
		cfg.TL.StaticAlpha = 0.02 // static share: ~2% of free resources each
		qa, _ := qpPair(cl, src, dst, cfg)
		return qa
	}

	// Slow flows: continuous 256KB writes into the crawling target.
	for i := 0; i < slow; i++ {
		qp := mkConn(slowTgt)
		writeLoop(s, qp, 2, 256<<10, nil, nil)
	}

	// Fast flow: 64KB writes to the healthy target; measure its latency.
	fast := mkConn(fastTgt)
	var lat stats.Series
	writeLoop(s, fast, 1, 64<<10, &lat, nil)

	s.RunUntil(sim.Time(runFor))
	if lat.Count() == 0 {
		return runFor // fully starved
	}
	return lat.DurationPercentile(99)
}
