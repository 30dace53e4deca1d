package experiments

import (
	"fmt"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/pdl"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/telemetry"
	"falcon/internal/workload"
)

// rackPair builds the §6.1.3 rack-level testbed: two racks of
// hostsPerRack hosts with `spines` equal paths between them, host i in
// rack 1 talking to host i in rack 2.
func rackPair(o Options, seed int64, hostsPerRack, spines int) (*sim.Simulator, *netsim.Topology, *core.Cluster) {
	s := o.newSim(seed)
	host := netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
	fabric := netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * time.Microsecond}
	topo := netsim.TwoRack(s, hostsPerRack, spines, host, fabric)
	return s, topo, core.NewCluster(s)
}

// mpLoadRun drives host-pair traffic at the offered load (fraction of
// fabric capacity) and returns mean/p99 op latency and achieved goodput.
// With a non-nil suite the run exports the first pair's connection state,
// node-0's FAE delay histograms and ToR-uplink-0's port counters under
// prefix; the 60%-load cell records the multipath time series.
func mpLoadRun(o Options, seed int64, connCfg core.ConnConfig, load float64, runFor time.Duration, tel *telemetry.Suite, prefix string) (p50, p99 time.Duration, achievedGbps float64) {
	const hostsPerRack = 8
	const spines = 4
	fabricGbps := float64(spines) * 200
	s, topo, cl := rackPair(o, seed, hostsPerRack, spines)
	var nodes []*core.Node
	for _, h := range topo.Hosts {
		nodes = append(nodes, cl.AddNode(h, core.DefaultNodeConfig()))
	}
	const opBytes = 64 << 10
	var lat stats.Series
	var delivered uint64
	var firstEp *core.Endpoint
	perPairRate := load * fabricGbps / float64(hostsPerRack) // Gbps per pair
	opsPerSec := perPairRate * 1e9 / 8 / opBytes
	for i := 0; i < hostsPerRack; i++ {
		a := nodes[i]
		b := nodes[hostsPerRack+i]
		epA, epB := cl.Connect(a, b, connCfg)
		qa := rdma.NewQP(epA, rdma.Config{})
		rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 40)
		if firstEp == nil {
			firstEp = epA
		}
		gen := workload.NewPoisson(s, s.Rand(), opsPerSec, 1<<30, func() {
			start := s.Now()
			qa.Write(0, 0, nil, opBytes, func(c rdma.Completion) {
				if c.Err == nil {
					lat.AddDuration(s.Now().Sub(start))
					delivered += opBytes
				}
			})
		})
		gen.Start()
	}
	if tel != nil {
		// Cross-rack traffic fans over the ToR's spine uplinks; uplink 0
		// is one of the ECMP paths multipath load-balances across.
		uplink := topo.ToRs[0].RouteTo(topo.Hosts[hostsPerRack].ID)[0]
		reg := tel.Registry()
		telemetry.CollectPDL(reg, prefix+"/conn0", firstEp.PDL())
		telemetry.CollectTL(reg, prefix+"/conn0", firstEp.TL())
		telemetry.CollectPort(reg, prefix+"/tor_uplink0", uplink)
		telemetry.CollectFAE(reg, prefix+"/node0", nodes[0].Engine())
		telemetry.ObserveFAE(reg, prefix+"/node0", nodes[0].Engine())
		if load == 0.6 {
			sp := tel.Sampler("load60", s, 20*time.Microsecond)
			telemetry.TrackPDL(sp, "conn0", firstEp.PDL())
			telemetry.TrackPort(sp, "tor_uplink0", uplink)
			sp.Start(sim.Time(runFor))
		}
	}
	s.RunUntil(sim.Time(runFor))
	return lat.DurationPercentile(50), lat.DurationPercentile(99), stats.Gbps(delivered, runFor)
}

// Fig15 reproduces "multipath op latency vs offered load": single-path
// connections hit their latency wall far earlier than multipath ones.
//
// With o.Tel set, every multipath load point exports connection, FAE and
// spine-uplink metrics, and the 60%-load point records the
// cwnd/uplink-queue time series — the multipath trace behind the figure.
func Fig15(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 15/16: rack-level 8<->8 hosts, 4 spines, 64KB writes",
		Columns: []string{"load %fabric", "multi p50", "multi p99", "multi Gbps", "single p50", "single p99", "single Gbps"},
	}
	for _, load := range []float64{0.2, 0.4, 0.6, 0.75, 0.9} {
		prefix := fmt.Sprintf("fig15/load%d", int(load*100+0.5))
		mp50, mp99, mg := mpLoadRun(o, 15, multipathConn(), load, runFor, o.Tel, prefix)
		sp50, sp99, sg := mpLoadRun(o, 15, singlePathConn(), load, runFor, nil, "")
		t.Rows = append(t.Rows, []string{
			f1(load * 100), dur(mp50), dur(mp99), f1(mg), dur(sp50), dur(sp99), f1(sg),
		})
	}
	return t
}

// Fig17 reproduces "multipath scheduling policy": congestion-aware path
// selection vs round-robin spraying at high offered load.
func Fig17(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 17: path policy at high load (congestion-aware vs round-robin)",
		Columns: []string{"load %fabric", "aware p50", "aware p99", "rr p50", "rr p99"},
	}
	rr := multipathConn()
	rr.PDL.Policy = pdl.PolicyRoundRobin
	for _, load := range []float64{0.5, 0.7, 0.9} {
		ap50, ap99, _ := mpLoadRun(o, 17, multipathConn(), load, runFor, nil, "")
		rp50, rp99, _ := mpLoadRun(o, 17, rr, load, runFor, nil, "")
		t.Rows = append(t.Rows, []string{
			f1(load * 100), dur(ap50), dur(ap99), dur(rp50), dur(rp99),
		})
	}
	return t
}

// Fig3 reproduces "multipathing benefits ML workloads": transport-level
// multipathing vs the application naively striping over N single-path
// connections. The multipath transport rebalances between paths
// congestion-aware per packet; app-level striping is stuck with its
// initial (possibly colliding) ECMP placements.
func Fig3(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 3: transport multipathing vs app-level N connections, 256KB ops",
		Columns: []string{"scheme", "p50", "p99", "Gbps"},
	}
	const opBytes = 256 << 10
	run := func(appConns int, connCfg core.ConnConfig) (time.Duration, time.Duration, float64) {
		s, topo, cl := rackPair(o, 3, 8, 4)
		var nodes []*core.Node
		for _, h := range topo.Hosts {
			nodes = append(nodes, cl.AddNode(h, core.DefaultNodeConfig()))
		}
		var lat stats.Series
		var delivered uint64
		for i := 0; i < 8; i++ {
			var qps []*rdma.QP
			for cIdx := 0; cIdx < appConns; cIdx++ {
				epA, epB := cl.Connect(nodes[i], nodes[8+i], connCfg)
				qa := rdma.NewQP(epA, rdma.Config{})
				rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 40)
				qps = append(qps, qa)
			}
			next := 0
			issuer := workload.NewClosedLoop(s, 4, 1<<30, func(opDone func()) bool {
				qp := qps[next%len(qps)]
				next++
				start := s.Now()
				err := qp.Write(0, 0, nil, opBytes, func(c rdma.Completion) {
					if c.Err == nil {
						lat.AddDuration(s.Now().Sub(start))
						delivered += opBytes
					}
					opDone()
				})
				return err == nil
			}, nil)
			issuer.Start()
		}
		s.RunUntil(sim.Time(runFor))
		return lat.DurationPercentile(50), lat.DurationPercentile(99), stats.Gbps(delivered, runFor)
	}
	mp50, mp99, mg := run(1, multipathConn())
	ap50, ap99, ag := run(4, singlePathConn())
	sp50, sp99, sg := run(1, singlePathConn())
	t.Rows = append(t.Rows, []string{"transport multipath (4 flows)", dur(mp50), dur(mp99), f1(mg)})
	t.Rows = append(t.Rows, []string{"app-level 4 connections", dur(ap50), dur(ap99), f1(ag)})
	t.Rows = append(t.Rows, []string{"single connection", dur(sp50), dur(sp99), f1(sg)})
	return t
}

// Fig18 reproduces the ASTRA-sim study: communication time of
// data-parallel training (ring AllReduce across two racks) with and
// without multipathing, sweeping model size.
//
// Scaled down: 16 nodes (paper: 64) and models up to 64MB of exchanged
// gradient per iteration.
func Fig18(o Options) *Table {
	t := &Table{
		Title:   "Figure 18: ML training comm time per iteration (16 nodes, 2 racks)",
		Columns: []string{"grad bytes/rank", "multipath", "single-path", "speedup"},
	}
	run := func(bytes int, cfg core.ConnConfig) time.Duration {
		s := o.newSim(18)
		host := netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
		fabric := netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * time.Microsecond}
		topo := netsim.TwoRack(s, 8, 4, host, fabric)
		cl := core.NewCluster(s)
		var nodes []*core.Node
		for _, h := range topo.Hosts {
			nodes = append(nodes, cl.AddNode(h, core.DefaultNodeConfig()))
		}
		m := workload.NewFalconMessenger(cl, nodes, 16, 1, cfg)
		var done sim.Time
		workload.AllReduce(m, bytes, func() { done = s.Now() })
		s.Run()
		return done.Duration()
	}
	for _, bytes := range []int{1 << 20, 8 << 20, 32 << 20, 64 << 20} {
		mp := run(bytes, multipathConn())
		sp := run(bytes, singlePathConn())
		t.Rows = append(t.Rows, []string{
			f1(float64(bytes) / (1 << 20)), dur(mp), dur(sp), f2(float64(sp) / float64(mp)),
		})
	}
	return t
}
