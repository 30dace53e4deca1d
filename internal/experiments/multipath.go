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

// rackHosts and rackSpines shape the §6.1.3 rack-level testbed the
// multipath, routing and storm figures share: two racks of rackHosts
// hosts joined by rackSpines equal paths.
const (
	rackHosts  = 8
	rackSpines = 4
)

// rackPair builds the §6.1.3 rack-level testbed on the row.
func rackPair(r *row) *netsim.Topology {
	fabric := netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * time.Microsecond}
	return netsim.TwoRack(r.s, rackHosts, rackSpines, hostLink, fabric)
}

// rackOpBytes is the size of every rack-pair Write.
const rackOpBytes = 64 << 10

// rackWrites is the rack-pair Poisson-Write workload: host i of rack 0
// writes rackOpBytes to host i of rack 1, Poisson at the offered load (a
// fraction of the fabric's capacity), at most ops Writes per pair.
type rackWrites struct {
	lat       stats.Series // latency of each Write that completed
	delivered uint64       // bytes of those Writes
	completed uint64
	eps       []*core.Endpoint // each pair's initiator, then its target
}

// rackOpsPerSec is one pair's Write arrival rate at the offered load.
func rackOpsPerSec(load float64) float64 {
	perPairRate := load * (rackSpines * 200) / rackHosts // Gbps per pair
	return perPairRate * 1e9 / 8 / rackOpBytes
}

// startRackWrites connects the pairs among nodes (the rack pair's hosts in
// order) and starts their Poisson arrivals.
func startRackWrites(r *row, cl *core.Cluster, nodes []*core.Node, cfg core.ConnConfig, load float64, ops int) *rackWrites {
	s := r.s
	w := &rackWrites{}
	opsPerSec := rackOpsPerSec(load)
	for i := 0; i < rackHosts; i++ {
		qa, qb := qpPair(cl, nodes[i], nodes[rackHosts+i], cfg)
		w.eps = append(w.eps, qa.Endpoint(), qb.Endpoint())
		workload.NewPoisson(s, s.Rand(), opsPerSec, ops, func() {
			start := s.Now()
			qa.Write(0, 0, nil, rackOpBytes, func(c rdma.Completion) {
				if c.Err == nil {
					w.lat.AddDuration(s.Now().Sub(start))
					w.delivered += rackOpBytes
					w.completed++
				}
			})
		}).Start()
	}
	return w
}

// mpLoadRun drives the rack-pair Writes at the offered load (fraction of
// fabric capacity) and returns p50/p99 op latency and achieved goodput.
// With observe set, an instrumented run exports the first pair's
// connection state, node-0's FAE delay histograms and ToR-uplink-0's port
// counters under the row's path; the 60%-load cell records the multipath
// time series.
func mpLoadRun(r *row, connCfg core.ConnConfig, load float64, runFor time.Duration, observe bool) (p50, p99 time.Duration, achievedGbps float64) {
	topo := rackPair(r)
	cl, nodes := falconNodes(r, topo.Hosts, core.DefaultNodeConfig())
	w := startRackWrites(r, cl, nodes, connCfg, load, 1<<30)
	if reg := r.reg; observe && reg != nil {
		// Cross-rack traffic fans over the ToR's spine uplinks; uplink 0
		// is one of the ECMP paths multipath load-balances across.
		uplink := topo.ToRs[0].RouteTo(topo.Hosts[rackHosts].ID)[0]
		conn0 := w.eps[0]
		telemetry.CollectPDL(reg, r.path+"/conn0", conn0.PDL())
		telemetry.CollectTL(reg, r.path+"/conn0", conn0.TL())
		telemetry.CollectPort(reg, r.path+"/tor_uplink0", uplink)
		telemetry.CollectFAE(reg, r.path+"/node0", nodes[0].Engine())
		telemetry.ObserveFAE(reg, r.path+"/node0", nodes[0].Engine())
		if load == 0.6 {
			r.series("load60", runFor, func(sp *telemetry.Sampler) {
				telemetry.TrackPDL(sp, "conn0", conn0.PDL())
				telemetry.TrackPort(sp, "tor_uplink0", uplink)
			})
		}
	}
	r.s.RunUntil(sim.Time(runFor))
	return w.lat.DurationPercentile(50), w.lat.DurationPercentile(99), stats.Gbps(w.delivered, runFor)
}

// Fig15 reproduces "multipath op latency vs offered load": single-path
// connections hit their latency wall far earlier than multipath ones.
//
// On an instrumented run, every multipath load point exports connection, FAE and
// spine-uplink metrics, and the 60%-load point records the
// cwnd/uplink-queue time series — the multipath trace behind the figure.
func Fig15(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 15/16: rack-level 8<->8 hosts, 4 spines, 64KB writes",
		Columns: []string{"load %fabric", "multi p50", "multi p99", "multi Gbps", "single p50", "single p99", "single Gbps"},
	}
	for _, load := range []float64{0.2, 0.4, 0.6, 0.75, 0.9} {
		cell := fmt.Sprintf("load%d", int(load*100+0.5))
		mp50, mp99, mg := mpLoadRun(o.row(cell, 15), multipathConn(), load, runFor, true)
		sp50, sp99, sg := mpLoadRun(o.row("single/"+cell, 15), singlePathConn(), load, runFor, false)
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
		cell := fmt.Sprintf("load%d", int(load*100+0.5))
		ap50, ap99, _ := mpLoadRun(o.row("aware/"+cell, 17), multipathConn(), load, runFor, false)
		rp50, rp99, _ := mpLoadRun(o.row("rr/"+cell, 17), rr, load, runFor, false)
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
	run := func(name string, appConns int, connCfg core.ConnConfig) (time.Duration, time.Duration, float64) {
		r := o.row(name, 3)
		s := r.s
		cl, nodes := falconNodes(r, rackPair(r).Hosts, core.DefaultNodeConfig())
		var lat stats.Series
		var delivered uint64
		for i := 0; i < rackHosts; i++ {
			var qps []*rdma.QP
			for cIdx := 0; cIdx < appConns; cIdx++ {
				qa, _ := qpPair(cl, nodes[i], nodes[rackHosts+i], connCfg)
				qps = append(qps, qa)
			}
			next := 0
			workload.NewClosedLoop(s, 4, 1<<30, func(opDone func()) bool {
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
			}, nil).Start()
		}
		s.RunUntil(sim.Time(runFor))
		return lat.DurationPercentile(50), lat.DurationPercentile(99), stats.Gbps(delivered, runFor)
	}
	mp50, mp99, mg := run("multipath", 1, multipathConn())
	ap50, ap99, ag := run("app4", 4, singlePathConn())
	sp50, sp99, sg := run("single", 1, singlePathConn())
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
	run := func(name string, bytes int, cfg core.ConnConfig) time.Duration {
		r := o.row(name+"/"+fmtSize(bytes), 18)
		cl, nodes := falconNodes(r, rackPair(r).Hosts, core.DefaultNodeConfig())
		m := workload.NewFalconMessenger(cl, nodes, 16, 1, cfg)
		var done sim.Time
		workload.AllReduce(m, bytes, func() { done = r.s.Now() })
		r.s.Run()
		return done.Duration()
	}
	for _, bytes := range []int{1 << 20, 8 << 20, 32 << 20, 64 << 20} {
		mp := run("multipath", bytes, multipathConn())
		sp := run("single", bytes, singlePathConn())
		t.Rows = append(t.Rows, []string{
			f1(float64(bytes) / (1 << 20)), dur(mp), dur(sp), f2(float64(sp) / float64(mp)),
		})
	}
	return t
}
