package experiments

import (
	"fmt"
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/nic"
	"falcon/internal/rdma"
	"falcon/internal/roce"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/telemetry"
	"falcon/internal/workload"
)

// Fig13 reproduces "Falcon and RoCE behavior under fabric congestion":
// 5 client machines issue 1MB writes per QP to one server, sweeping the
// per-host QP count to stress congestion control. Reported: op latency
// relative to ideal (mean/p50/p99), total goodput and per-QP fairness.
//
// Scaled down: the paper sweeps to 1000 QPs/host (5000:1); the simulator
// sweeps to 100/host (500:1), which already exceeds the
// bandwidth-delay product per flow by orders of magnitude.
//
// On an instrumented run, each Falcon incast exports the server-downlink port
// counters (queue extremes, ECN marks, drops), one representative
// connection's PDL/congestion state, the server NIC pipeline counters and
// the server FAE's delay histograms; the 20-QP cell additionally records
// the queue-depth and cwnd time series — the incast trace behind the
// figure.
func Fig13(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 13: incast, 5 clients x N QPs of 1MB writes to one server",
		Columns: []string{"transport", "QPs/host", "mean/ideal", "p50/ideal", "p99/ideal", "goodput Gbps", "Jain"},
	}
	const opBytes = 1 << 20
	gbps := hostLink.GbpsRate
	for _, qps := range []int{1, 4, 20, 100} {
		m, p50, p99, goodput, jain := falconIncast(o.row(fmt.Sprintf("qps%d", qps), 13), qps, opBytes, runFor)
		ideal := idealIncastLatency(qps, opBytes, gbps)
		t.Rows = append(t.Rows, []string{
			"Falcon", f1(float64(qps)),
			f2(m.Seconds() / ideal.Seconds()),
			f2(p50.Seconds() / ideal.Seconds()),
			f2(p99.Seconds() / ideal.Seconds()),
			f1(goodput), f2(jain),
		})
	}
	for _, qps := range []int{1, 4, 20, 100} {
		m, p50, p99, goodput, jain := roceIncast(o.row(fmt.Sprintf("roce/qps%d", qps), 13), qps, opBytes, runFor)
		ideal := idealIncastLatency(qps, opBytes, gbps)
		t.Rows = append(t.Rows, []string{
			"RoCE", f1(float64(qps)),
			f2(m.Seconds() / ideal.Seconds()),
			f2(p50.Seconds() / ideal.Seconds()),
			f2(p99.Seconds() / ideal.Seconds()),
			f1(goodput), f2(jain),
		})
	}
	return t
}

// idealIncastLatency is the fair-share completion time of one 1MB op when
// 5*qps flows share the server link.
func idealIncastLatency(qpsPerHost, opBytes int, gbps float64) time.Duration {
	flows := 5 * qpsPerHost
	perFlowGbps := gbps / float64(flows)
	return time.Duration(float64(opBytes) * 8 / perFlowGbps)
}

// falconIncast runs one Falcon incast cell: 5 clients with qpsPerHost
// closed-loop 1-deep Write streams each, into host 0 of a star.
func falconIncast(r *row, qpsPerHost, opBytes int, runFor time.Duration) (mean, p50, p99 time.Duration, goodput, jain float64) {
	s := r.s
	topo := netsim.Star(s, 6, hostLink)
	cl, nodes := falconNodes(r, topo.Hosts, core.DefaultNodeConfig())
	server := nodes[0]
	var lat stats.Series
	var eps []*core.Endpoint
	for _, client := range nodes[1:] {
		for q := 0; q < qpsPerHost; q++ {
			qa, _ := qpPair(cl, client, server, multipathConn())
			eps = append(eps, qa.Endpoint())
			writeLoop(s, qa, 1, opBytes, &lat, nil)
		}
	}
	if reg := r.reg; reg != nil {
		// The incast bottleneck is the switch's downlink to the server:
		// its queue is where 5*qps flows collide.
		down := topo.ToRs[0].RouteTo(topo.Hosts[0].ID)[0]
		telemetry.CollectPort(reg, r.path+"/server_downlink", down)
		telemetry.CollectPDL(reg, r.path+"/conn0", eps[0].PDL())
		telemetry.CollectNIC(reg, r.path+"/server", server.NIC())
		// ACK events (RTT / fabric-delay samples) are processed by the
		// initiator's engine, so observe the first client, not the server.
		telemetry.CollectFAE(reg, r.path+"/client0", nodes[1].Engine())
		telemetry.ObserveFAE(reg, r.path+"/client0", nodes[1].Engine())
		if qpsPerHost == 20 {
			r.series("qps20", runFor, func(sp *telemetry.Sampler) {
				telemetry.TrackPDL(sp, "conn0", eps[0].PDL())
				telemetry.TrackPort(sp, "server_downlink", down)
			})
		}
	}
	s.RunUntil(sim.Time(runFor))
	// Goodput and fairness at transaction (MTU) granularity: whole-op
	// completions undercount flows still mid-op at the window's end.
	var total uint64
	vals := make([]float64, len(eps))
	for i, ep := range eps {
		b := ep.TL().Stats.CompletedOK * 4096
		vals[i] = float64(b)
		total += b
	}
	return lat.MeanDuration(), lat.DurationPercentile(50), lat.DurationPercentile(99),
		stats.Gbps(total, runFor), stats.Jain(vals)
}

// roceIncast is falconIncast's RoCE twin.
func roceIncast(r *row, qpsPerHost, opBytes int, runFor time.Duration) (mean, p50, p99 time.Duration, goodput, jain float64) {
	s := r.s
	topo := netsim.Star(s, 6, hostLink)
	server := roce.NewNode(s, topo.Hosts[0], nil)
	var lat stats.Series
	var resps []*roce.Responder
	id := uint32(1)
	for h := 1; h <= 5; h++ {
		client := roce.NewNode(s, topo.Hosts[h], nil)
		for q := 0; q < qpsPerHost; q++ {
			cfg := roce.DefaultConfig()
			cfg.LinkGbps = hostLink.GbpsRate
			qp, resp := roce.Connect(client, server, id, cfg)
			resps = append(resps, resp)
			id++
			workload.NewClosedLoop(s, 1, 1<<30, func(opDone func()) bool {
				start := s.Now()
				qp.Write(opBytes, func() {
					lat.AddDuration(s.Now().Sub(start))
					opDone()
				})
				return true
			}, nil).Start()
		}
	}
	s.RunUntil(sim.Time(runFor))
	var total uint64
	vals := make([]float64, len(resps))
	for i, r := range resps {
		vals[i] = float64(r.Stats.DeliveredBytes)
		total += r.Stats.DeliveredBytes
	}
	return lat.MeanDuration(), lat.DurationPercentile(50), lat.DurationPercentile(99),
		stats.Gbps(total, runFor), stats.Jain(vals)
}

// Fig14 reproduces "Falcon and RoCE behavior under end-host congestion":
// a client streams 64KB writes while the server's host interface (PCIe) is
// downgraded from 200 to 100 Gbps mid-run and later restored. Reported:
// goodput in each phase and the convergence times, plus Falcon's ncwnd.
func Fig14(o Options, phase time.Duration) *Table {
	t := &Table{
		Title:   "Figure 14: end-host congestion (PCIe 200->100->200 Gbps), 64KB writes",
		Columns: []string{"transport", "phase", "goodput Gbps", "converge ms", "ncwnd(end)"},
	}
	// runPhases downgrades the server's host interface for the middle of
	// three phases, runs them, and adds one row per phase; ncwnd is read
	// once the run is over.
	runPhases := func(transport string, s *sim.Simulator, server *nic.NIC, rates *stats.RateSeries, ncwnd func() string) {
		s.At(sim.Time(phase), func() { server.SetHostGbps(100) })
		s.At(sim.Time(2*phase), func() { server.SetHostGbps(200) })
		s.RunUntil(sim.Time(3 * phase))
		for i, name := range []string{"full", "degraded", "restored"} {
			g, conv := phaseGoodput(rates, 10*i, 10*i+10, phase/10)
			t.Rows = append(t.Rows, []string{transport, name, f1(g), f1(conv), ncwnd()})
		}
	}
	// Falcon run.
	{
		p := newFalconP2P(o.row("falcon", 29), multipathConn())
		s := p.s
		rates := stats.NewRateSeries(phase / 10)
		workload.NewClosedLoop(s, 16, 1<<30, func(opDone func()) bool {
			err := p.qa.Write(0, 0, nil, 64<<10, func(c rdma.Completion) {
				if c.Err == nil {
					rates.Record(s.Now(), 64<<10)
				}
				opDone()
			})
			return err == nil
		}, nil).Start()
		runPhases("Falcon", s, p.qb.Endpoint().Node().NIC(), rates, func() string {
			return f1(p.qa.Endpoint().PDL().Ncwnd())
		})
	}
	// RoCE run (host interface via the NIC model).
	{
		s := o.row("roce", 29).s
		topo, _ := netsim.PointToPoint(s, hostLink)
		clientNode := roce.NewNode(s, topo.Hosts[0], nil)
		serverNIC := nic.New(s, nic.DefaultConfig())
		serverNode := roce.NewNode(s, topo.Hosts[1], serverNIC)
		qp, _ := roce.Connect(clientNode, serverNode, 1, roce.DefaultConfig())
		rates := stats.NewRateSeries(phase / 10)
		workload.NewClosedLoop(s, 16, 1<<30, func(opDone func()) bool {
			qp.Write(64<<10, func() {
				rates.Record(s.Now(), 64<<10)
				opDone()
			})
			return true
		}, nil).Start()
		runPhases("RoCE", s, serverNIC, rates, func() string { return "-" })
	}
	return t
}

// phaseGoodput averages the rate over [from,to) buckets and estimates
// convergence time: buckets until the rate is within 15% of the phase's
// final level.
func phaseGoodput(r *stats.RateSeries, from, to int, bucket time.Duration) (gbps float64, convergeMs float64) {
	if to > r.Len() {
		to = r.Len()
	}
	if from >= to {
		return 0, 0
	}
	sum := 0.0
	for i := from; i < to; i++ {
		sum += r.GbpsAt(i)
	}
	final := r.GbpsAt(to - 1)
	conv := 0
	for i := from; i < to; i++ {
		if final > 0 && absf(r.GbpsAt(i)-final)/final < 0.15 {
			conv = i - from
			break
		}
		conv = i - from + 1
	}
	return sum / float64(to-from), float64(conv) * bucket.Seconds() * 1000
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
