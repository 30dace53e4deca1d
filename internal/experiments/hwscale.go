package experiments

import (
	"fmt"
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/nic"
	"falcon/internal/rdma"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/swtransport"
	"falcon/internal/workload"
)

// Fig19 reproduces "message size scaling": RDMA Write completion latency
// between two hosts on an unloaded network, p50/p99 versus the ideal
// (serialization + propagation + minimal processing).
func Fig19(o Options) *Table {
	t := &Table{
		Title:   "Figure 19: write completion latency vs message size (unloaded)",
		Columns: []string{"size", "p50", "p99", "ideal", "p50/ideal"},
	}
	gbps := hostLink.GbpsRate
	for _, size := range []int{8, 512, 4 << 10, 32 << 10, 256 << 10, 1 << 20} {
		p := newFalconP2P(o.row(fmtSize(size), 19), multipathConn())
		var lat stats.Series
		var issue func(n int)
		issue = func(n int) {
			if n == 0 {
				return
			}
			start := p.s.Now()
			p.qa.Write(0, 0, nil, size, func(c rdma.Completion) {
				lat.AddDuration(p.s.Now().Sub(start))
				issue(n - 1)
			})
		}
		issue(200)
		p.s.Run()
		// Ideal: one serialization of the payload at the bottleneck
		// link (store-and-forward overlaps across the two hops for
		// multi-packet messages) plus the round-trip propagation and
		// ACK return.
		ideal := time.Duration(float64(size)*8/gbps) + 4*time.Microsecond
		t.Rows = append(t.Rows, []string{
			fmtSize(size), dur(lat.DurationPercentile(50)), dur(lat.DurationPercentile(99)),
			dur(ideal), f2(lat.Percentile(50) / float64(ideal)),
		})
	}
	return t
}

func fmtSize(n int) string {
	switch {
	case n >= 1<<20:
		return f1(float64(n)/(1<<20)) + "MB"
	case n >= 1<<10:
		return f1(float64(n)/(1<<10)) + "KB"
	}
	return f1(float64(n)) + "B"
}

// Fig20a reproduces "bandwidth scaling": a 100:1 RDMA Read incast (one
// client pulling from 100 connections over five servers) at increasing
// offered bandwidth, Falcon vs an optimized software transport. The
// software stack's op latency explodes as its CPUs saturate; Falcon stays
// flat until the link itself saturates.
//
// Scaled down from the paper's 500 connections to 100.
func Fig20a(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 20a: 100:1 read incast latency vs offered load",
		Columns: []string{"offered Gbps", "Falcon p50", "Falcon p99", "SW p50", "SW p99"},
	}
	const conns = 100
	const servers = 5
	const opBytes = 16 << 10
	for _, offered := range []float64{40, 80, 120, 160, 190} {
		perConnRate := offered * 1e9 / 8 / opBytes / conns
		cell := "offered" + f1(offered)
		// Falcon.
		fp50, fp99 := func() (time.Duration, time.Duration) {
			r := o.row(cell, 20)
			s := r.s
			cl, nodes := falconNodes(r, netsim.Star(s, servers+1, hostLink).Hosts, core.DefaultNodeConfig())
			var lat stats.Series
			for c := 0; c < conns; c++ {
				qa, _ := qpPair(cl, nodes[0], nodes[1+c%servers], multipathConn())
				workload.NewPoisson(s, s.Rand(), perConnRate, 1<<30, func() {
					start := s.Now()
					qa.Read(0, 0, opBytes, func(c rdma.Completion) {
						if c.Err == nil {
							lat.AddDuration(s.Now().Sub(start))
						}
					})
				}).Start()
			}
			s.RunUntil(sim.Time(runFor))
			return lat.DurationPercentile(50), lat.DurationPercentile(99)
		}()
		// Software transport.
		sp50, sp99 := func() (time.Duration, time.Duration) {
			r := o.row(cell+"/sw", 20)
			s := r.s
			nodes := swNodes(r, netsim.Star(s, servers+1, hostLink).Hosts)
			var lat stats.Series
			for c := 0; c < conns; c++ {
				conn := swtransport.Connect(nodes[0], nodes[1+c%servers], uint32(c+1))
				workload.NewPoisson(s, s.Rand(), perConnRate, 1<<30, func() {
					start := s.Now()
					conn.Call(64, opBytes, func() {
						lat.AddDuration(s.Now().Sub(start))
					})
				}).Start()
			}
			s.RunUntil(sim.Time(runFor))
			return lat.DurationPercentile(50), lat.DurationPercentile(99)
		}()
		t.Rows = append(t.Rows, []string{f1(offered), dur(fp50), dur(fp99), dur(sp50), dur(sp99)})
	}
	return t
}

// Fig20b reproduces "op-rate scaling": maximum 8B RDMA Write rate between
// two hosts versus QP count. A single QP is bounded by the per-connection
// pipeline (~20 Mops); the aggregate pipeline saturates around 120 Mops.
func Fig20b(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 20b: 8B write op rate vs QP count",
		Columns: []string{"QPs", "Mops/s"},
	}
	for _, qps := range []int{1, 2, 4, 8, 12, 16} {
		r := o.row(fmt.Sprintf("qps%d", qps), 20)
		s := r.s
		topo, _ := netsim.PointToPoint(s, opRateLink)
		cl, n := falconNodes(r, topo.Hosts, core.DefaultNodeConfig())
		var ops uint64
		for q := 0; q < qps; q++ {
			qa, _ := qpPair(cl, n[0], n[1], unorderedConn())
			// Window 128 matches the PDL sequence window: enough to
			// cover the NIC pipeline's bandwidth-delay product.
			workload.NewClosedLoop(s, 128, 1<<30, func(opDone func()) bool {
				err := qa.Write(0, 0, nil, 8, func(c rdma.Completion) {
					ops++
					opDone()
				})
				return err == nil
			}, nil).Start()
		}
		s.RunUntil(sim.Time(runFor))
		t.Rows = append(t.Rows, []string{f1(float64(qps)), f1(float64(ops) / runFor.Seconds() / 1e6)})
	}
	return t
}

// pingPong is Fig 21's closed loop of single-outstanding ping-pongs, one
// typed action for the whole run. Each ping-pong draws a connection and
// steps through six stages, scheduling itself once per stage: client TX,
// the wire, server RX, server TX, the wire, client RX. The last stage
// records the round trip and starts the next ping-pong.
type pingPong struct {
	s     *sim.Simulator
	a, b  *nic.NIC
	conns int
	left  int // ping-pongs not yet started

	conn  uint32
	stage int
	start sim.Time
	lat   stats.Series
}

// pingPongWire is the one-way wire delay between the two NICs.
const pingPongWire = 2 * time.Microsecond

func (p *pingPong) next() {
	if p.left == 0 {
		return
	}
	p.left--
	p.conn = uint32(p.s.Rand().Intn(p.conns))
	p.start = p.s.Now()
	p.stage = 0
	p.a.ProcessAction(p.conn, p)
}

func (p *pingPong) RunAction() {
	p.stage++
	switch p.stage {
	case 1, 4:
		p.s.AtAction(p.s.Now().Add(pingPongWire), p)
	case 2, 3:
		p.b.ProcessAction(p.conn, p)
	case 5:
		p.a.ProcessAction(p.conn, p)
	default:
		p.lat.AddDuration(p.s.Now().Sub(p.start))
		p.next()
	}
}

// Fig21 reproduces "connection cliff": software-visible RTT of a
// single-outstanding 8B read ping-pong while connections are chosen
// uniformly at random from a growing pool, for Falcon's NIC (on-NIC DRAM
// backing store, two cache levels) versus a CX-7-like NIC (host-memory
// backing store). The experiment isolates the connection-state cache, so
// it drives the NIC model directly: each ping-pong costs four pipeline
// passes (TX and RX on each side) plus the wire.
func Fig21(o Options) *Table {
	t := &Table{
		Title:   "Figure 21: ping-pong RTT vs connection count (cache pressure)",
		Columns: []string{"connections", "Falcon RTT", "CX7-like RTT", "Falcon/base", "CX7/base"},
	}
	const opsPerConnSample = 200_000
	run := func(name string, cfg nic.Config, conns int) time.Duration {
		s := o.row(fmt.Sprintf("%s/conns%d", name, conns), 21).s
		p := &pingPong{s: s, a: nic.New(s, cfg), b: nic.New(s, cfg), conns: conns, left: opsPerConnSample}
		p.next()
		s.Run()
		return p.lat.MeanDuration()
	}
	falconBase := run("falcon", nic.DefaultConfig(), 1)
	cx7Base := run("cx7", nic.CX7LikeConfig(), 1)
	for _, conns := range []int{1000, 10_000, 100_000, 300_000, 1_000_000} {
		f := run("falcon", nic.DefaultConfig(), conns)
		c := run("cx7", nic.CX7LikeConfig(), conns)
		t.Rows = append(t.Rows, []string{
			f1(float64(conns)), dur(f), dur(c),
			f2(float64(f) / float64(falconBase)), f2(float64(c) / float64(cx7Base)),
		})
	}
	return t
}
