package core_test

import (
	"runtime"
	"testing"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
)

// footprintBound is the retained heap, in bytes per connection, that
// TestConnectionFootprint allows: 16 341–16 523 B measured (amd64, Go
// 1.24; the lower figure running alone, the higher inside the package's
// whole suite) plus 10 %. It was last tightened when per-connection state
// was sized to what a connection holds (8-slot first rings in ring.Table,
// a 40-byte scoreboard slot, sequence spaces inline in pdl.Conn, flows
// inline in the FAE, no closure per pull segment); the same world measured
// 19 377–19 560 B before that change, 20 158–20 341 B before the Swift,
// ncwnd and PDL parameters that never varied became constants, and
// 29 170–29 200 B before the TL stopped buffering in-order requests
// (EXPERIMENTS.md, "Footprint gate").
const footprintBound = 18_180

// TestConnectionFootprint is the per-connection working-set gate. It builds
// the incast_conns shape at a fifth of its scale: five clients on a star,
// 200 ordered connections to one server, each running one 64 KiB rdma Read
// to quiescence. What the whole world retains after a collection, divided
// by the connections, must stay under footprintBound, so the next state
// that every connection allocates eagerly fails here, not only in a
// benchmark pair.
func TestConnectionFootprint(t *testing.T) {
	const clients, conns, opBytes = 5, 200, 64 << 10
	before := liveHeap()

	s := sim.New(1)
	topo := netsim.Star(s, clients+1, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cl := core.NewCluster(s)
	cfg := core.DefaultNodeConfig()
	cfg.NIC.CacheSize = 512
	cfg.FAE.UseECN = true
	server := cl.AddNode(topo.Hosts[0], cfg)
	nodes := []*core.Node{server}
	for _, h := range topo.Hosts[1:] {
		nodes = append(nodes, cl.AddNode(h, cfg))
	}
	completed := 0
	for i := 0; i < conns; i++ {
		epC, epS := cl.Connect(nodes[1+i%clients], server, core.DefaultConnConfig())
		rdma.NewQP(epS, rdma.Config{}).RegisterMemoryLen(1 << 40)
		if err := rdma.NewQP(epC, rdma.Config{}).Read(uint64(i), 0, opBytes, func(c rdma.Completion) {
			if c.Err != nil {
				t.Errorf("read %d: %v", i, c.Err)
			}
			completed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if completed != conns {
		t.Fatalf("completed %d of %d reads", completed, conns)
	}

	perConn := float64(liveHeap()-before) / conns
	runtime.KeepAlive(cl)
	runtime.KeepAlive(nodes)
	t.Logf("retained heap: %.0f B per connection (bound %d)", perConn, footprintBound)
	if perConn > footprintBound {
		t.Fatalf("retained heap %.0f B per connection, want <= %d", perConn, footprintBound)
	}
}

// reorderedFootprintBound is the retained heap, in bytes per connection,
// that TestReorderedConnectionFootprint allows: 29 598–29 785 B measured
// (amd64, Go 1.24; alone and inside the package's whole suite) plus 10 %.
// It was last tightened with footprintBound; the same world measured
// 31 506–31 693 B before that change, 32 288–32 474 B before the one
// before, and 42 035–42 220 B before the TL's reorder buffer held pooled
// packets by pointer instead of 192-byte copies (EXPERIMENTS.md,
// "Reordered footprint gate").
const reorderedFootprintBound = 32_770

// TestReorderedConnectionFootprint is TestConnectionFootprint's world with
// every target holding requests ahead of a gap: each of the 200 ordered
// connections runs one 256 KiB rdma Write (64 pushes), and every client's
// uplink delays a quarter of its frames by 20 µs, so later pushes overtake
// earlier ones and wait in the server's reorder buffers. The bound then
// covers what a connection retains once it has held a request, which
// TestConnectionFootprint's in-order Reads never do.
func TestReorderedConnectionFootprint(t *testing.T) {
	const clients, conns, opBytes = 5, 200, 256 << 10
	before := liveHeap()

	s := sim.New(1)
	topo := netsim.Star(s, clients+1, netsim.LinkConfig{GbpsRate: 100, PropDelay: sim.Microsecond})
	cl := core.NewCluster(s)
	cfg := core.DefaultNodeConfig()
	cfg.NIC.CacheSize = 512
	cfg.FAE.UseECN = true
	server := cl.AddNode(topo.Hosts[0], cfg)
	nodes := []*core.Node{server}
	for _, h := range topo.Hosts[1:] {
		h.Uplink().SetReorder(0.25, 20*sim.Microsecond)
		nodes = append(nodes, cl.AddNode(h, cfg))
	}
	completed := 0
	spies := make([]*holdSpy, conns)
	for i := range spies {
		epC, epS := cl.Connect(nodes[1+i%clients], server, core.DefaultConnConfig())
		qpS := rdma.NewQP(epS, rdma.Config{})
		qpS.RegisterMemoryLen(1 << 40)
		spies[i] = newHoldSpy(epS, qpS.Target())
		if err := rdma.NewQP(epC, rdma.Config{}).Write(uint64(i), 0, nil, opBytes, func(c rdma.Completion) {
			if c.Err != nil {
				t.Errorf("write %d: %v", i, c.Err)
			}
			completed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if completed != conns {
		t.Fatalf("completed %d of %d writes", completed, conns)
	}
	for i, spy := range spies {
		if spy.held == 0 {
			t.Fatalf("connection %d never held a request ahead of a gap", i)
		}
	}

	perConn := float64(liveHeap()-before) / conns
	runtime.KeepAlive(cl)
	runtime.KeepAlive(nodes)
	t.Logf("retained heap: %.0f B per connection (bound %d)", perConn, reorderedFootprintBound)
	if perConn > reorderedFootprintBound {
		t.Fatalf("retained heap %.0f B per connection, want <= %d", perConn, reorderedFootprintBound)
	}
}

// nodeFootprintBound is the retained heap, in bytes per connection, that
// TestNodeFootprint allows: 12 599–12 640 B measured alone and 12 890 B
// inside the package's whole suite (amd64, Go 1.24), plus 10 %. The same
// world measured 14 526 / 14 817 B while nodes found connections through
// maps and the NIC's per-key slices started at 16 entries (EXPERIMENTS.md,
// "connections by dense per-node key").
const nodeFootprintBound = 14_180

// TestNodeFootprint is the per-node working-set gate. It builds the
// fabric_scale shape at a quarter of its racks: a Clos of 4 racks of 64
// hosts under 4 spines, a Falcon node on every host, and 128 connections
// from the first two racks to the last two, so each node holds exactly
// one; each connection runs one 16 KiB rdma Write to quiescence. What the
// cluster retains beyond the fabric, divided by the connections, must stay
// under nodeFootprintBound: with one connection per node, what a node keeps
// for the connections it holds (its NIC, FAE and connection tables) is a
// large share of that, so a per-node table sized for more connections
// than the node holds fails here.
func TestNodeFootprint(t *testing.T) {
	const racks, perRack, spines, opBytes = 4, 64, 4, 16 << 10
	const conns = racks * perRack / 2
	s := sim.New(1)
	topo := netsim.Clos(s, racks, perRack, spines,
		netsim.LinkConfig{GbpsRate: 100, PropDelay: 500 * sim.Nanosecond},
		netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * sim.Microsecond})
	before := liveHeap()

	cl := core.NewCluster(s)
	nodes := make([]*core.Node, len(topo.Hosts))
	for i, h := range topo.Hosts {
		nodes[i] = cl.AddNode(h, core.DefaultNodeConfig())
	}
	completed := 0
	for i, j := range s.Rand().Perm(conns) {
		a, b := nodes[i], nodes[conns+j]
		if i%2 == 1 {
			a, b = b, a
		}
		epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
		rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 40)
		if err := rdma.NewQP(epA, rdma.Config{}).Write(uint64(i), 0, nil, opBytes, func(c rdma.Completion) {
			if c.Err != nil {
				t.Errorf("write %d: %v", i, c.Err)
			}
			completed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if completed != conns {
		t.Fatalf("completed %d of %d writes", completed, conns)
	}

	perConn := float64(liveHeap()-before) / conns
	runtime.KeepAlive(cl)
	runtime.KeepAlive(nodes)
	t.Logf("retained heap: %.0f B per connection (bound %d)", perConn, nodeFootprintBound)
	if perConn > nodeFootprintBound {
		t.Fatalf("retained heap %.0f B per connection, want <= %d", perConn, nodeFootprintBound)
	}
}

// holdSpy wraps an endpoint's target handler and counts the requests it
// serves while later ones wait in the connection's reorder buffer.
type holdSpy struct {
	tl.TargetHandler
	conn *tl.Conn
	held int
}

// newHoldSpy installs a spy in front of h as ep's target handler.
func newHoldSpy(ep *core.Endpoint, h tl.TargetHandler) *holdSpy {
	spy := &holdSpy{TargetHandler: h, conn: ep.TL()}
	ep.SetTarget(spy)
	return spy
}

func (s *holdSpy) HandlePush(rsn uint64, p *wire.Packet) tl.TargetVerdict {
	if s.conn.ReorderBacklog() > 0 {
		s.held++
	}
	return s.TargetHandler.HandlePush(rsn, p)
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
