package experiments

import (
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
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
	baseline := fig24Run(o, 0, tl.BackpressureNone, runFor)
	for _, slow := range []int{10, 100, 300} {
		none := fig24Run(o, slow, tl.BackpressureNone, runFor)
		static := fig24Run(o, slow, tl.BackpressureStatic, runFor)
		dynamic := fig24Run(o, slow, tl.BackpressureDynamic, runFor)
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
func fig24Run(o Options, slow int, mode tl.BackpressureMode, runFor time.Duration) time.Duration {
	s := o.newSim(24)
	link := netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
	// Hosts: 0 = the shared source, 1 = fast target (same rack), 2 =
	// slow target whose host interface is crawling (standing in for the
	// paper's periodic cross-rack incast).
	topo := netsim.Star(s, 3, link)
	cl := core.NewCluster(s)
	src := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	fastTgt := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	slowTgt := cl.AddNode(topo.Hosts[2], core.DefaultNodeConfig())
	slowTgt.NIC().SetHostGbps(1) // the slowdown

	mkConn := func(dst *core.Node) *rdma.QP {
		cfg := multipathConn()
		cfg.TL.Backpressure = mode
		cfg.TL.StaticAlpha = 0.02 // static share: ~2% of free resources each
		epA, epB := cl.Connect(src, dst, cfg)
		qa := rdma.NewQP(epA, rdma.Config{})
		rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 40)
		return qa
	}

	// Slow flows: continuous 256KB writes into the crawling target.
	for i := 0; i < slow; i++ {
		qp := mkConn(slowTgt)
		issuer := workload.NewClosedLoop(s, 2, 1<<30, func(opDone func()) bool {
			err := qp.Write(0, 0, nil, 256<<10, func(c rdma.Completion) { opDone() })
			return err == nil
		}, nil)
		issuer.Start()
	}

	// Fast flow: 64KB writes to the healthy target; measure its latency.
	fast := mkConn(fastTgt)
	var lat stats.Series
	issuer := workload.NewClosedLoop(s, 1, 1<<30, func(opDone func()) bool {
		start := s.Now()
		err := fast.Write(0, 0, nil, 64<<10, func(c rdma.Completion) {
			if c.Err == nil {
				lat.AddDuration(s.Now().Sub(start))
			}
			opDone()
		})
		return err == nil
	}, nil)
	issuer.Start()

	s.RunUntil(sim.Time(runFor))
	if lat.Count() == 0 {
		return runFor // fully starved
	}
	return lat.DurationPercentile(99)
}
