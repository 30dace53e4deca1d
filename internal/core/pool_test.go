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
// lasted. With one pool per partition simulator both nodes recycle through
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

			loop := closedLoop(t, window, func(id uint64, done func(rdma.Completion)) error {
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
			// Every op in the window can have each of its segments held
			// four times over: the sender's retained copy, its snapshot on
			// the wire, and the same for the ACK or response coming back.
			// The pool grows a block of 64 at a time.
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
