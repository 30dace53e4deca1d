package core_test

import (
	"runtime"
	"testing"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/netsim"
	"falcon/internal/nvme"
	"falcon/internal/rdma"
	"falcon/internal/roce"
	"falcon/internal/sim"
	"falcon/internal/swtransport"
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
// most Reads are refused mid-op, park in the TL and resume on the Xon edge
// — the regime of the incast benchmark, where a refusal or a resumption
// that allocates costs hundreds of objects per op. `make check` runs this.
// The rdma-read-incast case holds the same regime at connection scale:
// 200 connections, each a queue of its own, share each client's pools.
// The roce cases hold the RoCE baseline to the same bound: 4 KiB and
// 64 KiB Writes, and 64 KiB Reads. The sw cases hold the software
// transport to it under one-way 64 KiB Sends and under Calls that fetch
// 64 KiB.
// The rdma-write-reordered case holds the target's reorder buffer to it:
// requests that arrive ahead of a gap wait as pooled packets. The nvme
// cases hold both ends of NVMe-over-Falcon to it: 64 KiB Reads refused and
// parked as in rdma-read-refused, and 64 KiB Writes (command push, data
// pulls from the controller, device write, CQE push).
func TestTransportSteadyStateAllocs(t *testing.T) {
	t.Run("tl-push-pull", testTLSteadyStateAllocs)
	t.Run("rdma-read", func(t *testing.T) { testReadSteadyStateAllocs(t, false) })
	t.Run("rdma-read-refused", func(t *testing.T) { testReadSteadyStateAllocs(t, true) })
	t.Run("rdma-read-incast", testIncastSteadyStateAllocs)
	t.Run("rdma-write-reordered", testReorderedWriteSteadyStateAllocs)
	t.Run("nvme-read", func(t *testing.T) { testNVMeSteadyStateAllocs(t, false) })
	t.Run("nvme-write", func(t *testing.T) { testNVMeSteadyStateAllocs(t, true) })
	t.Run("roce-write", func(t *testing.T) {
		t.Run("4KiB", func(t *testing.T) { testRoceSteadyStateAllocs(t, false, 4<<10) })
		t.Run("64KiB", func(t *testing.T) { testRoceSteadyStateAllocs(t, false, 64<<10) })
	})
	t.Run("roce-read", func(t *testing.T) { testRoceSteadyStateAllocs(t, true, 64<<10) })
	t.Run("sw-send-oneway", func(t *testing.T) { testSWSteadyStateAllocs(t, false) })
	t.Run("sw-call", func(t *testing.T) { testSWSteadyStateAllocs(t, true) })
}

// testSWSteadyStateAllocs keeps eight 64 KiB software-transport ops
// outstanding, each posted from the completion of the one before: one-way
// Sends, or Calls of 64 B out and 64 KiB back. Every fragment's msg is
// taken from the sender's free list and must go back to it, not to the
// receiver's, and a Call's response leg must reuse its pooled state.
func testSWSteadyStateAllocs(t *testing.T, call bool) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	a := swtransport.NewNode(s, topo.Hosts[0], swtransport.PonyExpress())
	b := swtransport.NewNode(s, topo.Hosts[1], swtransport.PonyExpress())
	conn := swtransport.Connect(a, b, 1)
	const window = 8
	const opBytes = 64 << 10
	post := func(done func()) { conn.Send(opBytes, done) }
	if call {
		post = func(done func()) { conn.Call(64, opBytes, done) }
	}
	issued, completed, limit := 0, 0, 0
	var done func()
	done = func() {
		if completed++; issued < limit {
			issued++
			post(done)
		}
	}
	runOps := func(n int) {
		limit += n
		for ; issued < limit && issued-completed < window; issued++ {
			post(done)
		}
		s.RunUntil(s.Now().Add(3600 * sim.Second))
		if completed != limit {
			t.Fatalf("completed %d of %d ops", completed, limit)
		}
	}
	measureSteadyState(t, 8000, 4000, runOps)
}

// testRoceSteadyStateAllocs keeps eight RoCE ops of opBytes outstanding on
// a 100 Gbps pair, each posted from the completion of the one before.
func testRoceSteadyStateAllocs(t *testing.T, read bool, opBytes int) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cfg := roce.DefaultConfig()
	cfg.LinkGbps = 100
	qp, _ := roce.Connect(roce.NewNode(s, topo.Hosts[0], nil), roce.NewNode(s, topo.Hosts[1], nil), 1, cfg)
	post := qp.Write
	if read {
		post = qp.Read
	}
	const window = 8
	issued, completed, limit := 0, 0, 0
	var done func()
	done = func() {
		if completed++; issued < limit {
			issued++
			post(opBytes, done)
		}
	}
	runOps := func(n int) {
		limit += n
		for ; issued < limit && issued-completed < window; issued++ {
			post(opBytes, done)
		}
		s.RunUntil(s.Now().Add(3600 * sim.Second))
		if completed != limit {
			t.Fatalf("completed %d of %d ops", completed, limit)
		}
	}
	measureSteadyState(t, 8000, 4000, runOps)
}

// testNVMeSteadyStateAllocs runs 64 KiB NVMe commands, a window of eight,
// against a controller with a default device. Reads go through a client
// RX-response pool with room for one and a half of them, so most are
// refused mid-command and wait for the Xon edge.
func testNVMeSteadyStateAllocs(t *testing.T, write bool) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cl := core.NewCluster(s)
	const window = 8
	const opBytes = 64 << 10
	cfgA := core.DefaultNodeConfig()
	if !write {
		cfgA.Resources.Pools[tl.PoolRxResp].Bytes = opBytes * 3 / 2
	}
	a := cl.AddNode(topo.Hosts[0], cfgA)
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
	nvme.NewController(epB, nvme.NewDevice(s, nvme.DefaultDeviceConfig()))
	client := nvme.NewClient(epA)
	post := client.Read
	if write {
		post = client.Write
	}

	runOps := closedLoop(t, window, func(err error) error { return err }, func(id uint64, done func(error)) error {
		return post(id<<4, opBytes, done)
	}, func() { s.RunUntil(s.Now().Add(3600 * sim.Second)) })

	const warm, measured = 8000, 4000
	measureSteadyState(t, warm, measured, runOps)
	refused := epA.TL().Stats.Backpressured
	t.Logf("%d client TL refusals over %d commands", refused, warm+measured)
	if !write && refused < warm+measured {
		t.Fatalf("only %d refusals over %d reads: the refusal path was not sustained", refused, warm+measured)
	}
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
	issue := func() bool {
		for inFlight < window && issued < limit {
			var err error
			if issued%2 == 0 {
				_, err = epA.Push(nil, opBytes, done)
			} else {
				_, err = epA.Pull(opBytes, done)
			}
			if err != nil {
				return false // backpressure: parked until the Xon edge
			}
			inFlight++
			issued++
		}
		return true
	}
	pump = func() {
		if epA.TL().Parked() == 0 {
			epA.TL().Submit(tl.WorkFunc(issue))
		}
	}

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

// closedLoop returns a driver that keeps window ULP ops outstanding: each
// call issues n further ops through post, posting the next from the
// previous one's completion, calls run to drive the simulator, and fails
// the test unless all of them completed without error (errOf reads a
// completion's error).
func closedLoop[R any](t *testing.T, window int, errOf func(R) error, post func(id uint64, done func(R)) error, run func()) (runOps func(n int)) {
	issued, completed, limit := 0, 0, 0
	var done func(R)
	next := func() {
		issued++
		if err := post(uint64(issued), done); err != nil {
			t.Fatal(err)
		}
	}
	done = func(c R) {
		if err := errOf(c); err != nil {
			t.Fatalf("op error: %v", err)
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

// testReorderedWriteSteadyStateAllocs runs ordered 64 KiB Writes over a
// link that delays a quarter of the pushes by 20 µs, so the pushes behind
// them arrive ahead of a gap and wait in the target's reorder buffer.
func testReorderedWriteSteadyStateAllocs(t *testing.T) {
	s := sim.New(1)
	topo, fwd := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	fwd.SetReorder(0.25, 20*sim.Microsecond)
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
	qp := rdma.NewQP(epA, rdma.Config{})
	qpB := rdma.NewQP(epB, rdma.Config{})
	qpB.RegisterMemoryLen(1 << 30)
	spy := newHoldSpy(epB, qpB.Target())

	const window = 4
	const opBytes = 64 << 10
	runOps := closedLoop(t, window, rdmaErr, func(id uint64, done func(rdma.Completion)) error {
		return qp.Write(id, 0, nil, opBytes, done)
	}, func() { s.RunUntil(s.Now().Add(3600 * sim.Second)) })

	// The warm-up covers a revolution of the scheduler's level-1 wheel, as
	// testReadSteadyStateAllocs' does.
	const warm, measured = 8000, 4000
	measureSteadyState(t, warm, measured, runOps)
	t.Logf("%d serves with requests held ahead of a gap over %d writes", spy.held, warm+measured)
	if spy.held < warm+measured {
		t.Fatalf("only %d serves found requests held: the hold path was not sustained", spy.held)
	}
}

func rdmaErr(c rdma.Completion) error { return c.Err }

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

	runOps := closedLoop(t, window, rdmaErr, func(id uint64, done func(rdma.Completion)) error {
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

// testIncastSteadyStateAllocs runs TestConnectionFootprint's shape: five
// clients on a star, 200 ordered connections to one server, each keeping
// one 64 KiB Read outstanding. Each client's RX-response pool holds eight
// of its forty Reads, so most are refused, park in their connection and
// resume on its Xon edge, while every connection's PDL and TL queues keep
// a standing backlog that never drains to empty.
func testIncastSteadyStateAllocs(t *testing.T) {
	const clients, conns, opBytes = 5, 200, 64 << 10
	s := sim.New(1)
	topo := netsim.Star(s, clients+1, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cl := core.NewCluster(s)
	cfg := core.DefaultNodeConfig()
	cfg.NIC.CacheSize = 512
	cfg.FAE.UseECN = true
	server := cl.AddNode(topo.Hosts[0], cfg)
	cfg.Resources.Pools[tl.PoolRxResp].Bytes = 8 * opBytes
	var clientNodes []*core.Node
	for _, h := range topo.Hosts[1:] {
		clientNodes = append(clientNodes, cl.AddNode(h, cfg))
	}
	qps := make([]*rdma.QP, conns)
	tls := make([]*tl.Conn, conns)
	for i := range qps {
		epC, epS := cl.Connect(clientNodes[i%clients], server, core.DefaultConnConfig())
		rdma.NewQP(epS, rdma.Config{}).RegisterMemoryLen(1 << 40)
		qps[i], tls[i] = rdma.NewQP(epC, rdma.Config{}), epC.TL()
	}

	// Each connection posts its next Read from the previous one's
	// completion until limit Reads have been posted in all.
	issued, completed, limit := 0, 0, 0
	dones := make([]func(rdma.Completion), conns)
	post := func(i int) {
		issued++
		if err := qps[i].Read(uint64(issued), 0, opBytes, dones[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range dones {
		dones[i] = func(c rdma.Completion) {
			if c.Err != nil {
				t.Fatalf("read error: %v", c.Err)
			}
			completed++
			if issued < limit {
				post(i)
			}
		}
	}
	runOps := func(n int) {
		limit += n
		for i := 0; i < conns && issued < limit; i++ {
			post(i)
		}
		s.RunUntil(s.Now().Add(3600 * sim.Second))
		if completed != limit {
			t.Fatalf("completed %d of %d reads", completed, limit)
		}
	}

	const warm, measured = 8000, 4000
	measureSteadyState(t, warm, measured, runOps)
	var refused uint64
	for _, c := range tls {
		refused += c.Stats.Backpressured
	}
	t.Logf("%d TL refusals over %d reads", refused, warm+measured)
	if refused < warm+measured {
		t.Fatalf("only %d refusals over %d reads: the refusal path was not sustained", refused, warm+measured)
	}
}

// connectAllocBound is the ceiling, in heap objects, on one Cluster.Connect
// in TestConnectAllocs: 14 measured (amd64, Go 1.24) once an endpoint's PDL
// calls up through its methods; 32 while each endpoint kept nine closures.
const connectAllocBound = 14

// TestConnectAllocs counts the heap objects one Cluster.Connect builds
// between two nodes that already hold 2 000 connections, where the
// per-node and per-cluster tables grow too rarely to show in the average:
// what is left is the state every connection of every workload keeps.
func TestConnectAllocs(t *testing.T) {
	s := sim.New(1)
	topo := netsim.Star(s, 2, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	cfg := core.DefaultConnConfig()
	for i := 0; i < 2000; i++ {
		cl.Connect(a, b, cfg)
	}
	n := testing.AllocsPerRun(50, func() { cl.Connect(a, b, cfg) })
	t.Logf("Connect: %.2f allocs (bound %d)", n, connectAllocBound)
	if n > connectAllocBound {
		t.Fatalf("Connect allocates %.2f heap objects, want <= %d", n, connectAllocBound)
	}
}
