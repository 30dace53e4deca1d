package core_test

import (
	"testing"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
)

// TestPacketPoolBoundedAtQuiescence is the leak and growth audit for the
// transport packet pool. Traffic here is asymmetric — data one way, ACKs
// (fewer of them) the other — and a packet is acquired where it is sent
// and released where it is received, so with a pool per node the
// receiver's free list grew by the difference for as long as the run
// lasted. With one pool per cluster both nodes recycle through
// the same free list: after a drained run every packet is back
// (free == allocated), and the pool's size is set by the window's peak of
// packets in flight, not by how many ops ran.
func TestPacketPoolBoundedAtQuiescence(t *testing.T) {
	const window = 4
	const opBytes = 64 << 10
	for _, tc := range []struct {
		name string
		read bool
		drop float64
	}{
		{"one-way-writes", false, 0},
		{"reads-with-loss", true, 0.02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(5)
			topo, fwd := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
			fwd.SetDropProb(tc.drop)
			topo.Hosts[1].Uplink().SetDropProb(tc.drop)
			cl := core.NewCluster(s)
			a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
			b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
			if a.PacketPool() != b.PacketPool() {
				t.Fatal("two nodes on one simulator draw from different packet pools")
			}
			epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
			qp := rdma.NewQP(epA, rdma.Config{})
			rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 30)

			loop := closedLoop(t, window, rdmaErr, func(id uint64, done func(rdma.Completion)) error {
				if tc.read {
					return qp.Read(id, 0, opBytes, done)
				}
				return qp.Write(id, 0, nil, opBytes, done)
			}, s.Run)
			// runOps issues n more ops, drains, and returns the pool's size.
			ops := 0
			runOps := func(n int) int {
				loop(n)
				ops += n
				pool := a.PacketPool()
				if pool.Free() != pool.Allocated() {
					t.Fatalf("after %d ops and a full drain %d of %d pooled packets are free: leak",
						ops, pool.Free(), pool.Allocated())
				}
				return pool.Allocated()
			}

			short := runOps(200)
			long := runOps(2000)
			t.Logf("pool holds %d packets after 200 ops, %d after 2200", short, long)
			// A segment in flight is one packet, held by its sender and
			// shared with the wire, plus the ACK or response coming back;
			// a retransmission adds a copy only while an earlier
			// transmission is still out. Four packets per segment of a
			// window of ops is therefore a loose bound, and 64 more cover
			// part of the last refill (the pool grows a block of 93
			// packets at a time).
			if bound := 4*window*(opBytes/4096) + 64; long > bound {
				t.Fatalf("pool grew to %d packets, more than the %d a window of %d ops can have in flight",
					long, bound, window)
			}
			if long > 2*short {
				t.Fatalf("pool grew from %d to %d packets with run length", short, long)
			}
		})
	}
}

// TestPacketPoolManyConnections bounds the pool under a burst on many
// connections at once: an 8-host star in which every host opens one
// connection to every other (56 in all) and posts four 16 KiB Writes on
// each at the same instant, 896 segments in flight. The wire carries the
// sending PDL's own packet by reference, so a segment in flight costs one
// pooled packet, not a retained packet plus a copy on the wire. The pool
// read 1 488 packets after the burst drained; the bound leaves 10 % on
// top, and a pool that copied every transmitted packet grew to 1 856.
func TestPacketPoolManyConnections(t *testing.T) {
	const hosts, writes, opBytes = 8, 4, 16 << 10
	s := sim.New(3)
	topo := netsim.Star(s, hosts, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cl := core.NewCluster(s)
	nodes := make([]*core.Node, hosts)
	for i, h := range topo.Hosts {
		nodes[i] = cl.AddNode(h, core.DefaultNodeConfig())
	}
	completed, posted := 0, 0
	done := func(c rdma.Completion) {
		if c.Err != nil {
			t.Fatalf("write error: %v", c.Err)
		}
		completed++
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i == j {
				continue
			}
			epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
			qp := rdma.NewQP(epA, rdma.Config{})
			rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 30)
			for k := 0; k < writes; k++ {
				posted++
				if err := qp.Write(uint64(posted), 0, nil, opBytes, done); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s.Run()
	if completed != posted {
		t.Fatalf("completed %d of %d writes", completed, posted)
	}
	pool := nodes[0].PacketPool()
	if pool.Free() != pool.Allocated() {
		t.Fatalf("after a full drain %d of %d pooled packets are free: leak", pool.Free(), pool.Allocated())
	}
	segments := posted * opBytes / 4096
	t.Logf("pool holds %d packets after %d writes of %d segments", pool.Allocated(), posted, segments)
	if bound := 1488 * 11 / 10; pool.Allocated() > bound {
		t.Fatalf("pool grew to %d packets for %d segments, more than %d", pool.Allocated(), segments, bound)
	}
}

// TestNICJobsSharedPerCluster sends a burst of Pushes from node A to node
// C and, once it has drained, the same burst from node B. The NIC jobs of
// every node recycle through one free list per cluster, so B's egress jobs
// and the ingress jobs of the ACKs coming back to it are the ones A's
// burst released: the second burst builds no job, where a list per node
// kept each sender's peak as well.
func TestNICJobsSharedPerCluster(t *testing.T) {
	const burst = 64
	s := sim.New(1)
	topo := netsim.Star(s, 3, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cl := core.NewCluster(s)
	var nodes [3]*core.Node
	for i := range nodes {
		nodes[i] = cl.AddNode(topo.Hosts[i], core.DefaultNodeConfig())
	}
	send := func(from *core.Node) (rx, tx int) {
		ep, _ := cl.Connect(from, nodes[2], core.DefaultConnConfig())
		for i := 0; i < burst; i++ {
			if _, err := ep.Push(nil, 4096, nil); err != nil {
				t.Fatal(err)
			}
		}
		s.Run()
		cl.FreeLists(func(list string, built, free int) {
			if free != built {
				t.Errorf("the cluster built %d %s but %d are free after the drain", built, list, free)
			}
			switch list {
			case "rx jobs":
				rx = built
			case "tx jobs":
				tx = built
			}
		})
		return rx, tx
	}
	rx1, tx1 := send(nodes[0])
	rx2, tx2 := send(nodes[1])
	t.Logf("after one burst %d rx and %d tx jobs, after two %d and %d", rx1, tx1, rx2, tx2)
	if rx2 > rx1 || tx2 > tx1 {
		t.Fatalf("the second burst grew the jobs from %d rx and %d tx to %d and %d; want no growth",
			rx1, tx1, rx2, tx2)
	}
}
