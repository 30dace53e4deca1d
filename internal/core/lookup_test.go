package core

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"weak"

	"falcon/internal/falcon/fae"
	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/psp"
	"falcon/internal/sim"
)

// lookupWorld is four nodes on a star with connections whose IDs leave
// node 0 holding none of the IDs a misaddressed packet names: ID 1 joins
// nodes 2 and 3, ID 2 joins nodes 0 and 1 but node 0's side is closed, and
// ID 3 joins nodes 0 and 1 and stays live.
type lookupWorld struct {
	s     *sim.Simulator
	nodes []*Node
	live  *Endpoint // node 0's side of ID 3
}

func newLookupWorld(t *testing.T, pspOn bool) *lookupWorld {
	t.Helper()
	s := sim.New(3)
	topo := netsim.Star(s, 4, testLink)
	cl := NewCluster(s)
	w := &lookupWorld{s: s}
	for i, h := range topo.Hosts {
		cfg := DefaultNodeConfig()
		if pspOn {
			cfg.PSPMasterKey = []byte{byte(i), 'f', 'a', 'l', 'c', 'o', 'n'}
		}
		w.nodes = append(w.nodes, cl.AddNode(h, cfg))
	}
	other, _ := cl.Connect(w.nodes[2], w.nodes[3], DefaultConnConfig())
	closed, _ := cl.Connect(w.nodes[0], w.nodes[1], DefaultConnConfig())
	w.live, _ = cl.Connect(w.nodes[0], w.nodes[1], DefaultConnConfig())
	closed.Close()
	if other.ID() != 1 || closed.ID() != 2 || w.live.ID() != 3 {
		t.Fatalf("connection IDs %d, %d, %d; want 1, 2, 3", other.ID(), closed.ID(), w.live.ID())
	}
	return w
}

// misaddressed names the connection IDs no live endpoint on node 0 owns.
var misaddressed = []struct {
	name string
	id   uint32
}{
	{"id 0", 0},
	{"another pair's", 1},
	{"closed here", 2},
	{"past the table", 4},
	{"far past the table", 1 << 31},
	{"max id", ^uint32(0)},
}

// TestStaleCleartextPacketsDropped hands node 0 a pooled cleartext packet
// for each misaddressed ID: each is dropped without a panic and its hold
// released, so the pool balances and the NIC admits nothing; a packet for
// the live connection is still admitted.
func TestStaleCleartextPacketsDropped(t *testing.T) {
	w := newLookupWorld(t, false)
	n := w.nodes[0]
	pool := n.PacketPool()
	for _, tc := range misaddressed {
		p := pool.Acquire()
		p.Type, p.ConnID = wire.TypeAck, tc.id
		n.HandleFrame(&netsim.Frame{Payload: p, CE: true})
		if pool.Free() != pool.Allocated() {
			t.Fatalf("%s (%d): %d of %d pooled packets free after the drop",
				tc.name, tc.id, pool.Free(), pool.Allocated())
		}
		if got := n.NIC().Stats.PacketsProcessed; got != 0 {
			t.Fatalf("%s (%d): NIC admitted %d packets", tc.name, tc.id, got)
		}
	}
	p := pool.Acquire()
	p.Type, p.ConnID = wire.TypeAck, w.live.ID()
	n.HandleFrame(&netsim.Frame{Payload: p})
	w.s.Run()
	if got := n.NIC().Stats.PacketsProcessed; got != 1 {
		t.Fatalf("live connection: NIC admitted %d packets, want 1", got)
	}
	if pool.Free() != pool.Allocated() {
		t.Fatalf("%d of %d pooled packets free after the live packet", pool.Free(), pool.Allocated())
	}
}

// TestStalePSPPacketsDropped is TestStaleCleartextPacketsDropped on the
// PSP path: each frame is sealed for node 0 under the ID it names, so only
// the connection lookup can refuse it.
func TestStalePSPPacketsDropped(t *testing.T) {
	w := newLookupWorld(t, true)
	n := w.nodes[0]
	pool := n.PacketPool()
	seal := func(id uint32) sealedFrame {
		sa, err := psp.NewSA(n.pspKey, id)
		if err != nil {
			t.Fatal(err)
		}
		p := wire.Packet{Type: wire.TypeAck, ConnID: id}
		data, err := sa.Seal(p.Marshal(nil), pspCryptOffset, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sealedFrame{conn: id, data: data}
	}
	for _, tc := range misaddressed {
		n.HandleFrame(&netsim.Frame{Payload: seal(tc.id), CE: true})
		if pool.Free() != pool.Allocated() {
			t.Fatalf("%s (%d): %d of %d pooled packets free after the drop",
				tc.name, tc.id, pool.Free(), pool.Allocated())
		}
		if got := n.NIC().Stats.PacketsProcessed; got != 0 {
			t.Fatalf("%s (%d): NIC admitted %d packets", tc.name, tc.id, got)
		}
	}
	n.HandleFrame(&netsim.Frame{Payload: seal(w.live.ID())})
	w.s.Run()
	if got := n.NIC().Stats.PacketsProcessed; got != 1 {
		t.Fatalf("live connection: NIC admitted %d packets, want 1", got)
	}
	if pool.Free() != pool.Allocated() {
		t.Fatalf("%d of %d pooled packets free after the live packet", pool.Free(), pool.Allocated())
	}
}

// TestFAEResponseForUnknownKeyIgnored hands node 0's FAE sink responses
// for its closed key and for keys past its table: none reaches an
// endpoint, and one for the live key does.
func TestFAEResponseForUnknownKeyIgnored(t *testing.T) {
	w := newLookupWorld(t, false)
	n := w.nodes[0]
	ncwnd := w.live.PDL().Ncwnd()
	resp := func(key uint32) fae.Response {
		return fae.Response{Conn: key, FlowCwnd: 4, NCwnd: ncwnd + 1, FlowLabel: w.live.PDL().FlowLabel(0)}
	}
	if w.live.key != 1 {
		t.Fatalf("live endpoint has key %d, want 1", w.live.key)
	}
	for _, key := range []uint32{0, 2, 1 << 31, ^uint32(0)} {
		n.applyFAEResponse(resp(key))
		if got := w.live.PDL().Ncwnd(); got != ncwnd {
			t.Fatalf("key %d: live endpoint's ncwnd moved from %v to %v", key, ncwnd, got)
		}
	}
	n.applyFAEResponse(resp(w.live.key))
	if got := w.live.PDL().Ncwnd(); got != ncwnd+1 {
		t.Fatalf("a response for the live key left ncwnd at %v, want %v", got, ncwnd+1)
	}
}

// TestCrashTearsDownInIDOrder crashes a node whose endpoints were made in
// an order that interleaves both connection sides with other nodes'
// connections and a closed one: the error completions arrive in ascending
// connection-ID order, one per live endpoint, and the node keeps none.
func TestCrashTearsDownInIDOrder(t *testing.T) {
	s := sim.New(9)
	topo := netsim.Star(s, 4, testLink)
	cl := NewCluster(s)
	var nodes []*Node
	for _, h := range topo.Hosts {
		nodes = append(nodes, cl.AddNode(h, DefaultNodeConfig()))
	}
	x := nodes[0]
	var mine []*Endpoint
	connect := func(a, b *Node) {
		epA, epB := cl.Connect(a, b, DefaultConnConfig())
		switch x {
		case a:
			mine = append(mine, epA)
		case b:
			mine = append(mine, epB)
		}
	}
	connect(x, nodes[1])        // 1
	connect(nodes[2], nodes[3]) // 2
	connect(nodes[2], x)        // 3
	connect(x, nodes[3])        // 4: closed below
	connect(nodes[1], nodes[2]) // 5
	connect(nodes[3], x)        // 6
	connect(x, nodes[2])        // 7
	mine[2].Close()
	var order []uint32
	for _, ep := range mine {
		if ep == mine[2] {
			continue
		}
		id := ep.ID()
		if _, err := ep.Push(nil, 512, func(_ []byte, err error) {
			if err != nil {
				order = append(order, id)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := x.Crash(); got != 4 {
		t.Fatalf("Crash tore down %d connections, want 4", got)
	}
	want := []uint32{1, 3, 6, 7}
	if len(order) != len(want) {
		t.Fatalf("error completions for %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("error completions for %v, want %v", order, want)
		}
	}
	for k, ep := range x.eps {
		if ep != nil {
			t.Fatalf("slot %d still holds connection %d after the crash", k, ep.ID())
		}
	}
	eps := cl.Endpoints()
	if len(eps) != 9 {
		t.Fatalf("%d live endpoints after the crash, want the peers' 9", len(eps))
	}
	for i := 1; i < len(eps); i++ {
		a, b := eps[i-1], eps[i]
		if a.node.host.ID > b.node.host.ID || a.node == b.node && a.id >= b.id {
			t.Fatalf("Endpoints lists %v before %v", a, b)
		}
	}
}

// TestCrashReleasesConnection crashes a node with transactions in flight
// both ways: once the run drains, nothing the simulation keeps retains the
// crashed endpoint, its PDL connection or its TL connection, while the
// peer's endpoint, still on its node, stays reachable.
func TestCrashReleasesConnection(t *testing.T) {
	s := sim.New(5)
	topo, _ := netsim.PointToPoint(s, testLink)
	cl := NewCluster(s)
	x := cl.AddNode(topo.Hosts[0], DefaultNodeConfig())
	y := cl.AddNode(topo.Hosts[1], DefaultNodeConfig())
	// The endpoints are reached only through weak pointers once this
	// returns, so the test's own frame holds none of them.
	ep, pc, tc, peer := func() (weak.Pointer[Endpoint], weak.Pointer[pdl.Conn], weak.Pointer[tl.Conn], weak.Pointer[Endpoint]) {
		a, b := cl.Connect(x, y, DefaultConnConfig())
		a.SetTarget(&sink{})
		b.SetTarget(&sink{})
		for i := 0; i < 8; i++ {
			for _, ep := range []*Endpoint{a, b} {
				if _, err := ep.Push(nil, 4096, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		return weak.Make(a), weak.Make(a.PDL()), weak.Make(a.TL()), weak.Make(b)
	}()
	s.RunFor(2 * time.Microsecond) // transactions in flight both ways
	if got := x.Crash(); got != 1 {
		t.Fatalf("Crash tore down %d connections, want 1", got)
	}
	s.Run()
	runtime.GC()
	runtime.GC()
	if ep.Value() != nil {
		t.Error("the crashed endpoint is still reachable")
	}
	if pc.Value() != nil {
		t.Error("the crashed endpoint's PDL connection is still reachable")
	}
	if tc.Value() != nil {
		t.Error("the crashed endpoint's TL connection is still reachable")
	}
	if peer.Value() == nil {
		t.Error("the peer endpoint was collected: the check proves nothing")
	}
	runtime.KeepAlive(x)
	runtime.KeepAlive(y)
	runtime.KeepAlive(cl)
}

// TestRefusedCrashReleasesConnection is TestCrashReleasesConnection for a
// connection that a full pool refused before its node crashed. The
// refusal queues it behind the node's waiters for a release to wake it,
// but node X's TxReq pool is smaller than one Push, so X holds nothing
// and no release on X ever comes: the connection must leave the waiters
// when it fails.
func TestRefusedCrashReleasesConnection(t *testing.T) {
	s := sim.New(5)
	topo, _ := netsim.PointToPoint(s, testLink)
	cl := NewCluster(s)
	cfg := DefaultNodeConfig()
	cfg.Resources.Pools[tl.PoolTxReq].Bytes = 2048
	x := cl.AddNode(topo.Hosts[0], cfg)
	y := cl.AddNode(topo.Hosts[1], DefaultNodeConfig())
	ep, pc, tc, peer := func() (weak.Pointer[Endpoint], weak.Pointer[pdl.Conn], weak.Pointer[tl.Conn], weak.Pointer[Endpoint]) {
		a, b := cl.Connect(x, y, DefaultConnConfig())
		a.SetTarget(&sink{})
		if _, err := a.Push(nil, 4096, nil); !errors.Is(err, tl.ErrNoResources) {
			t.Fatalf("a Push larger than the TxReq pool returned %v, want ErrNoResources", err)
		}
		for i := 0; i < 8; i++ {
			if _, err := b.Push(nil, 4096, nil); err != nil {
				t.Fatal(err)
			}
		}
		return weak.Make(a), weak.Make(a.PDL()), weak.Make(a.TL()), weak.Make(b)
	}()
	s.RunFor(2 * time.Microsecond)
	if got := x.Crash(); got != 1 {
		t.Fatalf("Crash tore down %d connections, want 1", got)
	}
	s.Run()
	runtime.GC()
	runtime.GC()
	if ep.Value() != nil {
		t.Error("the refused, crashed endpoint is still reachable")
	}
	if pc.Value() != nil {
		t.Error("the refused, crashed endpoint's PDL connection is still reachable")
	}
	if tc.Value() != nil {
		t.Error("the refused, crashed endpoint's TL connection is still reachable")
	}
	if peer.Value() == nil {
		t.Error("the peer endpoint was collected: the check proves nothing")
	}
	runtime.KeepAlive(x)
	runtime.KeepAlive(y)
	runtime.KeepAlive(cl)
}
