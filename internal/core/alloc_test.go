package core_test

import (
	"runtime"
	"testing"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
)

// steadyStateAllocBound is the ceiling, in allocations per operation, every
// case of TestTransportSteadyStateAllocs is held to.
const steadyStateAllocBound = 0.02

// measureSteadyState runs warm ops to bring every pool to capacity, then
// checks the allocations per op over measured more against the bound.
// runOps(n) must issue n further ops and return once they have all
// completed. The warm-up is split in two because each runOps call refills
// the window from idle in one burst, and with an opened congestion window
// that burst is the run's peak of packets in flight: the measured call's
// burst must have happened once before.
func measureSteadyState(t *testing.T, warm, measured int, runOps func(n int)) {
	t.Helper()
	runOps(warm / 2)
	runOps(warm - warm/2)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runOps(measured)
	runtime.ReadMemStats(&after)

	perOp := float64(after.Mallocs-before.Mallocs) / float64(measured)
	t.Logf("steady state: %.4f allocs/op, %.1f B/op over %d ops",
		perOp, float64(after.TotalAlloc-before.TotalAlloc)/float64(measured), measured)
	if perOp > steadyStateAllocBound {
		t.Fatalf("transport hot path allocates: %.4f allocs/op, want <= %v", perOp, steadyStateAllocBound)
	}
}

// TestTransportSteadyStateAllocs is the end-to-end allocation gate the
// zero-alloc hot path is held to: after a warmup that brings every pool,
// free list, dense table, and timing-wheel bucket to steady-state
// capacity, a closed-loop window of mixed push/pull transactions — the
// full PDL/TL/NIC/fabric round trip — must run effectively allocation-
// free. The bound is a small fraction of an allocation per operation
// rather than exactly zero because the wheel occasionally regrows a
// bucket when timer deadlines cross epoch boundaries; a regression that
// reintroduces even one per-packet or per-transaction allocation
// overshoots it by 50x (measured steady state is ~0.016 allocs/op).
//
// The rdma cases hold the Pull path's ULP mapping to the same bound, per
// 64 KiB Read (16 transactions): with default pools, and with the
// initiator's RX-response pool cut below what the window solicits, so that
// most attempts are refused and re-issued by rdma's admission poll — the
// regime of the incast benchmark, where a refusal or a retry that
// allocates costs hundreds of objects per op. `make check` runs this.
func TestTransportSteadyStateAllocs(t *testing.T) {
	t.Run("tl-push-pull", testTLSteadyStateAllocs)
	t.Run("rdma-read", func(t *testing.T) { testReadSteadyStateAllocs(t, false) })
	t.Run("rdma-read-refused", func(t *testing.T) { testReadSteadyStateAllocs(t, true) })
}

func testTLSteadyStateAllocs(t *testing.T) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
	epB.SetTarget(benchTarget{})

	const window = 16
	const opBytes = 4096
	issued, completed, inFlight, limit := 0, 0, 0, 0
	var pump func()
	done := func(_ []byte, err error) {
		if err != nil {
			t.Fatalf("transaction error: %v", err)
		}
		inFlight--
		completed++
		pump()
	}
	pump = func() {
		for inFlight < window && issued < limit {
			var err error
			if issued%2 == 0 {
				_, err = epA.Push(nil, opBytes, done)
			} else {
				_, err = epA.Pull(opBytes, done)
			}
			if err != nil {
				return // backpressure: the Xon callback re-pumps
			}
			inFlight++
			issued++
		}
	}
	epA.TL().SetXonCallback(pump)

	runOps := func(n int) {
		limit += n
		pump()
		s.RunUntil(s.Now().Add(3600 * sim.Second))
		if completed != limit {
			t.Fatalf("completed %d of %d ops", completed, limit)
		}
	}

	measureSteadyState(t, 20000, 40000, runOps)
}

// closedLoop returns a driver that keeps window rdma ops outstanding: each
// call issues n further ops through post, posting the next from the
// previous one's completion, calls run to drive the simulator, and fails
// the test unless all of them completed without error.
func closedLoop(t *testing.T, window int, post func(id uint64, done func(rdma.Completion)) error, run func()) (runOps func(n int)) {
	issued, completed, limit := 0, 0, 0
	var done func(rdma.Completion)
	next := func() {
		issued++
		if err := post(uint64(issued), done); err != nil {
			t.Fatal(err)
		}
	}
	done = func(c rdma.Completion) {
		if c.Err != nil {
			t.Fatalf("op error: %v", c.Err)
		}
		completed++
		if issued < limit {
			next()
		}
	}
	return func(n int) {
		limit += n
		for issued < limit && issued-completed < window {
			next()
		}
		run()
		if completed != limit {
			t.Fatalf("completed %d of %d ops", completed, limit)
		}
	}
}

func testReadSteadyStateAllocs(t *testing.T, starve bool) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cl := core.NewCluster(s)
	cfgA := core.DefaultNodeConfig()
	const window = 4
	const opBytes = 64 << 10
	if starve {
		// Room for one and a half of the window's four Reads.
		cfgA.Resources.Pools[tl.PoolRxResp].Bytes = opBytes * 3 / 2
	}
	a := cl.AddNode(topo.Hosts[0], cfgA)
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
	qp := rdma.NewQP(epA, rdma.Config{})
	rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 30)

	runOps := closedLoop(t, window, func(id uint64, done func(rdma.Completion)) error {
		return qp.Read(id, 0, opBytes, done)
	}, func() { s.RunUntil(s.Now().Add(3600 * sim.Second)) })

	// The warm-up has to cover one revolution of the scheduler's level-1
	// wheel (33.5 ms simulated, about 6200 of these Reads at 100 Gbps):
	// until every slot has been visited once, slots growing their first
	// backing array dominate the count.
	const warm, measured = 8000, 4000
	measureSteadyState(t, warm, measured, runOps)
	refused := epA.TL().Stats.Backpressured
	t.Logf("%d TL refusals over %d reads", refused, warm+measured)
	if starve && refused < warm+measured {
		t.Fatalf("only %d refusals over %d reads: the refusal path was not sustained", refused, warm+measured)
	}
}
