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
// With o.Tel set, each Falcon incast exports the server-downlink port
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
	const gbps = 200
	const opBytes = 1 << 20
	for _, qps := range []int{1, 4, 20, 100} {
		m, p50, p99, goodput, jain := falconIncast(o, qps, opBytes, gbps, runFor)
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
		m, p50, p99, goodput, jain := roceIncast(o, qps, opBytes, gbps, runFor)
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

func falconIncast(o Options, qpsPerHost, opBytes int, gbps float64, runFor time.Duration) (mean, p50, p99 time.Duration, goodput, jain float64) {
	s := o.newSim(13)
	link := netsim.LinkConfig{GbpsRate: gbps, PropDelay: time.Microsecond}
	topo := netsim.Star(s, 6, link)
	cl := core.NewCluster(s)
	server := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	var lat stats.Series
	var eps []*core.Endpoint
	for h := 1; h <= 5; h++ {
		client := cl.AddNode(topo.Hosts[h], core.DefaultNodeConfig())
		for q := 0; q < qpsPerHost; q++ {
			epC, epS := cl.Connect(client, server, multipathConn())
			qa := rdma.NewQP(epC, rdma.Config{})
			rdma.NewQP(epS, rdma.Config{}).RegisterMemoryLen(1 << 40)
			eps = append(eps, epC)
			issuer := workload.NewClosedLoop(s, 1, 1<<30, func(opDone func()) bool {
				start := s.Now()
				err := qa.Write(0, 0, nil, opBytes, func(c rdma.Completion) {
					if c.Err == nil {
						lat.AddDuration(s.Now().Sub(start))
					}
					opDone()
				})
				return err == nil
			}, nil)
			issuer.Start()
		}
	}
	if tel := o.Tel; tel != nil {
		// The incast bottleneck is the switch's downlink to the server:
		// its queue is where 5*qps flows collide.
		down := topo.ToRs[0].RouteTo(topo.Hosts[0].ID)[0]
		prefix := fmt.Sprintf("fig13/qps%d", qpsPerHost)
		reg := tel.Registry()
		telemetry.CollectPort(reg, prefix+"/server_downlink", down)
		telemetry.CollectPDL(reg, prefix+"/conn0", eps[0].PDL())
		telemetry.CollectNIC(reg, prefix+"/server", server.NIC())
		// ACK events (RTT / fabric-delay samples) are processed by the
		// initiator's engine, so observe the first client, not the server.
		telemetry.CollectFAE(reg, prefix+"/client0", eps[0].Node().Engine())
		telemetry.ObserveFAE(reg, prefix+"/client0", eps[0].Node().Engine())
		if qpsPerHost == 20 {
			sp := tel.Sampler("qps20", s, 20*time.Microsecond)
			telemetry.TrackPDL(sp, "conn0", eps[0].PDL())
			telemetry.TrackPort(sp, "server_downlink", down)
			sp.Start(sim.Time(runFor))
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

func roceIncast(o Options, qpsPerHost, opBytes int, gbps float64, runFor time.Duration) (mean, p50, p99 time.Duration, goodput, jain float64) {
	s := o.newSim(13)
	link := netsim.LinkConfig{GbpsRate: gbps, PropDelay: time.Microsecond}
	topo := netsim.Star(s, 6, link)
	server := roce.NewNode(s, topo.Hosts[0], nil)
	var lat stats.Series
	var resps []*roce.Responder
	id := uint32(1)
	for h := 1; h <= 5; h++ {
		client := roce.NewNode(s, topo.Hosts[h], nil)
		for q := 0; q < qpsPerHost; q++ {
			cfg := roce.DefaultConfig()
			cfg.LinkGbps = gbps
			qp, resp := roce.Connect(client, server, id, cfg)
			resps = append(resps, resp)
			id++
			issuer := workload.NewClosedLoop(s, 1, 1<<30, func(opDone func()) bool {
				start := s.Now()
				qp.Write(opBytes, func() {
					lat.AddDuration(s.Now().Sub(start))
					opDone()
				})
				return true
			}, nil)
			issuer.Start()
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
	// Falcon run.
	{
		s := o.newSim(29)
		link := netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
		topo, _ := netsim.PointToPoint(s, link)
		cl := core.NewCluster(s)
		a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
		b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
		epA, epB := cl.Connect(a, b, multipathConn())
		qa := rdma.NewQP(epA, rdma.Config{})
		rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 40)
		rates := stats.NewRateSeries(phase / 10)
		issuer := workload.NewClosedLoop(s, 16, 1<<30, func(opDone func()) bool {
			err := qa.Write(0, 0, nil, 64<<10, func(c rdma.Completion) {
				if c.Err == nil {
					rates.Record(s.Now(), 64<<10)
				}
				opDone()
			})
			return err == nil
		}, nil)
		issuer.Start()
		s.At(sim.Time(phase), func() { b.NIC().SetHostGbps(100) })
		s.At(sim.Time(2*phase), func() { b.NIC().SetHostGbps(200) })
		s.RunUntil(sim.Time(3 * phase))
		emit := func(name string, from, to int) {
			g, conv := phaseGoodput(rates, from, to, phase/10)
			t.Rows = append(t.Rows, []string{"Falcon", name, f1(g), f1(conv), f1(epA.PDL().Ncwnd())})
		}
		emit("full", 0, 10)
		emit("degraded", 10, 20)
		emit("restored", 20, 30)
	}
	// RoCE run (host interface via the NIC model).
	{
		s := o.newSim(29)
		link := netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
		topo, _ := netsim.PointToPoint(s, link)
		clientNode := roce.NewNode(s, topo.Hosts[0], nil)
		nicCfg := nic.DefaultConfig()
		serverNIC := nic.New(s, nicCfg)
		serverNode := roce.NewNode(s, topo.Hosts[1], serverNIC)
		cfg := roce.DefaultConfig()
		qp, _ := roce.Connect(clientNode, serverNode, 1, cfg)
		rates := stats.NewRateSeries(phase / 10)
		issuer := workload.NewClosedLoop(s, 16, 1<<30, func(opDone func()) bool {
			qp.Write(64<<10, func() {
				rates.Record(s.Now(), 64<<10)
				opDone()
			})
			return true
		}, nil)
		issuer.Start()
		s.At(sim.Time(phase), func() { serverNIC.SetHostGbps(100) })
		s.At(sim.Time(2*phase), func() { serverNIC.SetHostGbps(200) })
		s.RunUntil(sim.Time(3 * phase))
		emit := func(name string, from, to int) {
			g, conv := phaseGoodput(rates, from, to, phase/10)
			t.Rows = append(t.Rows, []string{"RoCE", name, f1(g), f1(conv), "-"})
		}
		emit("full", 0, 10)
		emit("degraded", 10, 20)
		emit("restored", 20, 30)
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
