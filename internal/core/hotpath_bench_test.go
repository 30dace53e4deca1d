package core_test

// End-to-end transport microbenchmarks: a closed-loop window of push or
// pull transactions over a two-node point-to-point cluster, measuring the
// whole PDL/TL/NIC/fabric round trip per operation. These are the paired
// before/after numbers in BENCH_pr6.json's microbench section; run with
// -benchmem to see the steady-state allocation count the zero-alloc work
// targets.

import (
	"fmt"
	"testing"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/sim"
)

// benchTarget serves every request successfully; pulls are answered with
// the solicited length (simulation mode, no materialized bytes).
type benchTarget struct{}

func (benchTarget) HandlePush(rsn uint64, p *wire.Packet) tl.TargetVerdict {
	return tl.TargetVerdict{Kind: tl.TargetOK}
}

func (benchTarget) HandlePull(rsn uint64, p *wire.Packet) ([]byte, uint32, tl.TargetVerdict) {
	return nil, p.PullLength, tl.TargetVerdict{Kind: tl.TargetOK}
}

// benchTransport drives ops closed-loop transactions (window 16, 4KB)
// through a freshly built two-node cluster and returns only when every
// one of them completed.
func benchTransport(b *testing.B, pull bool) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	bn := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, epB := cl.Connect(a, bn, core.DefaultConnConfig())
	epB.SetTarget(benchTarget{})

	const window = 16
	const opBytes = 4096
	issued, completed, inFlight := 0, 0, 0
	var pump func()
	done := func(_ []byte, err error) {
		if err != nil {
			b.Fatalf("transaction error: %v", err)
		}
		inFlight--
		completed++
		pump()
	}
	issue := func() bool {
		for inFlight < window && issued < b.N {
			var err error
			if pull {
				_, err = epA.Pull(opBytes, done)
			} else {
				_, err = epA.Push(nil, opBytes, done)
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

	b.ReportAllocs()
	b.ResetTimer()
	pump()
	s.RunUntil(s.Now().Add(3600 * sim.Second))
	b.StopTimer()
	if completed != b.N {
		b.Fatalf("completed %d of %d ops", completed, b.N)
	}
}

func BenchmarkTransportPush(b *testing.B) { benchTransport(b, false) }

func BenchmarkTransportPull(b *testing.B) { benchTransport(b, true) }

// BenchmarkHandleFrame times one packet delivered to a node that holds 1
// or 1 000 endpoints (every connection to one peer node), the packets
// cycling over them: ingress finds the endpoint by the packet's connection
// ID, the NIC pipeline admits it, and the PDL takes it as an ACK carrying
// a timestamp echo, so each packet also posts one FAE event and applies
// its response. The cost should not grow with the endpoints a node holds.
func BenchmarkHandleFrame(b *testing.B) {
	for _, n := range []int{1, 1000} {
		b.Run(fmt.Sprintf("endpoints=%d", n), func(b *testing.B) { benchHandleFrame(b, n) })
	}
}

func benchHandleFrame(b *testing.B, endpoints int) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cl := core.NewCluster(s)
	node := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	peer := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	ids := make([]uint32, endpoints)
	for i := range ids {
		ep, _ := cl.Connect(node, peer, core.DefaultConnConfig())
		ids[i] = ep.ID()
	}
	pool := node.PacketPool()
	var f netsim.Frame
	deliver := func(i int) {
		p := pool.Acquire()
		p.Type, p.ConnID, p.T1Echo = wire.TypeAck, ids[i%endpoints], 1
		f.Payload = p
		node.HandleFrame(&f)
	}
	// One pass over the endpoints warms the NIC cache and the FAE state;
	// the sim drains every batch so the NIC's queue stays short.
	const batch = 256
	for i := 0; i < endpoints; i++ {
		deliver(i)
	}
	s.Run()
	processed, events := node.NIC().Stats.PacketsProcessed, node.Engine().EventsProcessed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver(i)
		if i%batch == batch-1 {
			s.Run()
		}
	}
	s.Run()
	b.StopTimer()
	if got := node.NIC().Stats.PacketsProcessed - processed; got != uint64(b.N) {
		b.Fatalf("NIC processed %d of %d packets", got, b.N)
	}
	if got := node.Engine().EventsProcessed - events; got != uint64(b.N) {
		b.Fatalf("FAE processed %d events for %d packets", got, b.N)
	}
	if pool.Free() != pool.Allocated() {
		b.Fatalf("%d of %d pooled packets free", pool.Free(), pool.Allocated())
	}
}
