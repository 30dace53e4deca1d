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

// footprint builds a scenario at n and at 2n connections, one after the
// other, and returns the heap each added connection retains, the slope
// (heap(2n) − heap(n)) / n, and the intercept heap(n) − n·slope, in bytes.
// heap(k) is what the world that build(k) returns retains (liveHeap after
// it, less liveHeap before it was built). What does not grow
// with the connections — the fabric, lazily built globals, whatever an
// earlier test left behind — lands in the intercept, so a gate on the
// slope reads the same alone and inside the package's suite.
func footprint(n int, build func(n int) any) (slope, intercept float64) {
	heap := func(k int) float64 {
		before := liveHeap()
		world := build(k)
		h := float64(liveHeap()) - float64(before)
		runtime.KeepAlive(world)
		return h
	}
	h := heap(n)
	slope = (heap(2*n) - h) / float64(n)
	return slope, h - float64(n)*slope
}

// checkFootprint fails t when the slope is over bound.
func checkFootprint(t *testing.T, slope, intercept float64, bound int) {
	t.Helper()
	t.Logf("retained heap: %.0f B per added connection (bound %d), intercept %.0f B", slope, bound, intercept)
	if slope > float64(bound) {
		t.Fatalf("retained heap %.0f B per added connection, want <= %d", slope, bound)
	}
}

// footprintBound is the retained heap, in bytes per added connection, that
// TestConnectionFootprint allows: 7 485–7 511 B measured (amd64, Go 1.24;
// alone and inside the package's whole suite) plus 10 %. The same slope
// reads 7 746 B while a scoreboard slot was 40 B and 10 956 B before
// per-connection state was sized to what a connection holds (EXPERIMENTS.md
// has both readings); the level the gate read before it measured a slope
// is traced in "Footprint gate".
const footprintBound = 8_270

// TestConnectionFootprint is the per-connection working-set gate. It builds
// the incast_conns shape: five clients on a star, n ordered connections to
// one server, each running one 64 KiB rdma Read to quiescence, at 200 and
// 400 connections. What each added connection retains must stay under
// footprintBound, so the next state that every connection allocates
// eagerly fails here, not only in a benchmark pair.
func TestConnectionFootprint(t *testing.T) {
	const clients, opBytes = 5, 64 << 10
	slope, intercept := footprint(200, func(conns int) any {
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
		return cl
	})
	checkFootprint(t, slope, intercept, footprintBound)
}

// reorderedFootprintBound is the retained heap, in bytes per added
// connection, that TestReorderedConnectionFootprint allows: 22 267–22 269 B
// measured (amd64, Go 1.24; alone and inside the package's whole suite)
// plus 10 %. The same slope reads 22 654–22 707 B while a scoreboard
// slot was 40 B and 25 377–25 430 B before per-connection state was sized
// to what a connection holds (EXPERIMENTS.md has both readings); the level
// the gate read before it measured a slope is traced in "Reordered
// footprint gate".
const reorderedFootprintBound = 24_500

// TestReorderedConnectionFootprint is TestConnectionFootprint's world with
// every target holding requests ahead of a gap: each ordered connection
// runs one 256 KiB rdma Write (64 pushes), and every client's uplink delays
// a quarter of its frames by 20 µs, so later pushes overtake earlier ones
// and wait in the server's reorder buffers. The bound then covers what a
// connection retains once it has held a request, which
// TestConnectionFootprint's in-order Reads never do. It runs at 100 and 200
// connections: at 400, some connections never hold one.
func TestReorderedConnectionFootprint(t *testing.T) {
	const clients, opBytes = 5, 256 << 10
	slope, intercept := footprint(100, func(conns int) any {
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
		return cl
	})
	checkFootprint(t, slope, intercept, reorderedFootprintBound)
}

// nodeFootprintBound is the retained heap, in bytes per added connection,
// that TestNodeFootprint allows: 12 280–12 281 B measured (amd64, Go 1.24;
// alone and inside the package's whole suite) plus 10 %. The same slope
// reads 12 408–12 409 B while a scoreboard slot was 40 B and 14 698 B
// while nodes found connections through maps and the NIC's per-key slices
// started at 16 entries (EXPERIMENTS.md has both readings).
const nodeFootprintBound = 13_510

// TestNodeFootprint is the per-node working-set gate. It builds the
// fabric_scale shape on a Clos of 8 racks of 64 hosts under 4 spines: n
// connections from the first half of the hosts to the second, each between
// two nodes of its own, so each node holds exactly one; each connection
// runs one 16 KiB rdma Write to quiescence, at 128 and 256 connections. What
// each added connection and its two nodes retain must stay under
// nodeFootprintBound: with one connection per node, what a node keeps for
// the connections it holds (its NIC, FAE and connection tables) is a large
// share of that, so a per-node table sized for more connections than the
// node holds fails here.
func TestNodeFootprint(t *testing.T) {
	const racks, perRack, spines, opBytes = 8, 64, 4, 16 << 10
	const half = racks * perRack / 2
	slope, intercept := footprint(128, func(conns int) any {
		s := sim.New(1)
		topo := netsim.Clos(s, racks, perRack, spines,
			netsim.LinkConfig{GbpsRate: 100, PropDelay: 500 * sim.Nanosecond},
			netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * sim.Microsecond})
		cl := core.NewCluster(s)
		completed := 0
		for i, j := range s.Rand().Perm(conns) {
			a := cl.AddNode(topo.Hosts[i], core.DefaultNodeConfig())
			b := cl.AddNode(topo.Hosts[half+j], core.DefaultNodeConfig())
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
		return cl
	})
	checkFootprint(t, slope, intercept, nodeFootprintBound)
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

// liveHeap returns the live heap after two forced collections: what a
// sync.Pool holds survives the first in the pool's victim cache and goes
// with the second. (The testing package's -run matcher leaves a 36 KB
// regexp backtracker in regexp's pool, which would otherwise be counted in
// the first reading after a test starts and gone by the next.)
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
