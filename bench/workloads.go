package main

import (
	"math/rand"
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
)

// opKind is the verb a connection issues.
type opKind uint8

const (
	kindWrite opKind = iota
	kindRead
	kindAlternate // Read, Write, Read, ... per connection
)

// spec describes one workload. Every workload is a closed loop: each
// connection keeps `window` RDMA ops outstanding and posts the next one when
// one completes.
type spec struct {
	name string
	// simPerSecond is the simulated duration measured for each requested
	// second of host time, sized on the 2-core reference machine so that
	// `-seconds 8` measures for about 8 s of wall clock. The simulated
	// duration — not the wall clock — is what is fixed, so event and op
	// counts repeat exactly for a seed.
	simPerSecond time.Duration
	// minWarm is the shortest warm-up: ten round trips of a loaded fabric
	// (incast_conns: one round of all 1000 connections). The warm-up is a
	// tenth of the measured duration when that is longer.
	minWarm time.Duration
	window  int
	kind    opKind
	// opsPerSimMs (ops completed per simulated ms, as measured) sizes the
	// latency sample buffer up front, with 30 % to spare, so that it does
	// not grow — and leave garbage — inside the window.
	opsPerSimMs int
	build       func(seed int64, rng *rand.Rand) *world
}

// world is one built workload instance: fabric, Falcon cluster and the
// initiator side of every connection.
type world struct {
	sim     *sim.Simulator
	net     *netsim.Network
	nodes   []*core.Node
	uplinks []*netsim.Port // ToR->spine ports (routing spread); nil on a star
	links   []link
	// What the layer drivers rebuild in isolation: fabric shape, node
	// configuration and one-way path loss.
	shape    topoShape
	nodeCfg  core.NodeConfig
	pathLoss float64
	// size draws the next op's payload size for a connection.
	size func(rng *rand.Rand) int
}

// link is one connection: initiator QP, target QP and both endpoints.
type link struct {
	qp       *rdma.QP
	targetQP *rdma.QP
	epA, epB *core.Endpoint
}

func (w *world) connect(cl *core.Cluster, a, b *core.Node) {
	epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
	qa := rdma.NewQP(epA, rdma.Config{})
	qb := rdma.NewQP(epB, rdma.Config{})
	qb.RegisterMemoryLen(1 << 40)
	w.links = append(w.links, link{qp: qa, targetQP: qb, epA: epA, epB: epB})
}

func fixedSize(n int) func(*rand.Rand) int { return func(*rand.Rand) int { return n } }

var specs = []*spec{
	{
		name:         "fabric_scale",
		simPerSecond: 100 * time.Microsecond,
		minWarm:      150 * time.Microsecond,
		window:       8,
		kind:         kindWrite,
		opsPerSimMs:  290000,
		build:        buildFabricScale,
	},
	{
		name:         "oprate_small",
		simPerSecond: 2900 * time.Microsecond,
		minWarm:      100 * time.Microsecond,
		window:       16,
		kind:         kindWrite,
		opsPerSimMs:  120000,
		build:        buildOprateSmall,
	},
	{
		name:         "lossy_mixed",
		simPerSecond: 10800 * time.Microsecond,
		minWarm:      time.Millisecond,
		window:       4,
		kind:         kindAlternate,
		opsPerSimMs:  1250,
		build:        buildLossyMixed,
	},
	{
		name:         "incast_conns",
		simPerSecond: 15 * time.Millisecond,
		minWarm:      8 * time.Millisecond,
		window:       1,
		kind:         kindRead,
		opsPerSimMs:  170,
		build:        buildIncastConns,
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

var (
	accessLink = netsim.LinkConfig{GbpsRate: 100, PropDelay: 500 * time.Nanosecond}
	fabricLink = netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * time.Microsecond}
)

// addNodes attaches a Falcon node with cfg to every host of the topology.
func (w *world) addNodes(cl *core.Cluster, hosts []*netsim.Host, cfg core.NodeConfig) {
	w.nodeCfg = cfg
	for _, h := range hosts {
		w.nodes = append(w.nodes, cl.AddNode(h, cfg))
	}
}

// torUplinks returns every ToR->spine port of a Clos.
func torUplinks(topo *netsim.Topology, hostsPerRack int) []*netsim.Port {
	var out []*netsim.Port
	for r, tor := range topo.ToRs {
		// A host of the next rack is reached over all of this ToR's uplinks.
		remote := topo.Hosts[((r+1)%len(topo.ToRs))*hostsPerRack]
		out = append(out, tor.RouteTo(remote.ID)...)
	}
	return out
}

// buildFabricScale: 1024-host 3-stage Clos, 512 connections on a seeded
// cross-rack permutation, 16 KiB Writes.
func buildFabricScale(seed int64, rng *rand.Rand) *world {
	const racks, perRack, spines = 16, 64, 16
	s := sim.NewWithScheduler(seed, sim.SchedulerWheel)
	topo := netsim.Clos(s, racks, perRack, spines, accessLink, fabricLink)
	cl := core.NewCluster(s)
	w := &world{sim: s, net: topo.Net, size: fixedSize(16 << 10), shape: topoShape{racks, perRack, spines}}
	w.addNodes(cl, topo.Hosts, core.DefaultNodeConfig())
	w.uplinks = torUplinks(topo, perRack)
	// Hosts of racks 0-7 are matched with hosts of racks 8-15 by a seeded
	// permutation, so every connection crosses the spine layer; alternate
	// pairs are initiated from the far side so data flows both ways.
	half := len(topo.Hosts) / 2
	for i, j := range rng.Perm(half) {
		a, b := w.nodes[i], w.nodes[half+j]
		if i%2 == 1 {
			a, b = b, a
		}
		w.connect(cl, a, b)
	}
	return w
}

// buildOprateSmall: one rack of 8 hosts, all-to-all 56 connections, Writes
// of 64 B (70 %), 512 B (20 %) or 4 KiB (10 %).
func buildOprateSmall(seed int64, rng *rand.Rand) *world {
	const hosts = 8
	s := sim.NewWithScheduler(seed, sim.SchedulerWheel)
	topo := netsim.Star(s, hosts, accessLink)
	cl := core.NewCluster(s)
	w := &world{sim: s, net: topo.Net, shape: topoShape{perRack: hosts}}
	w.addNodes(cl, topo.Hosts, core.DefaultNodeConfig())
	w.size = func(rng *rand.Rand) int {
		switch d := rng.Intn(10); {
		case d < 7:
			return 64
		case d < 9:
			return 512
		}
		return 4096
	}
	// The seed fixes the order connections are created in, and so their IDs.
	for _, k := range rng.Perm(hosts * hosts) {
		if a, b := k/hosts, k%hosts; a != b {
			w.connect(cl, w.nodes[a], w.nodes[b])
		}
	}
	return w
}

// buildLossyMixed: two racks of 16 hosts, 4 spines, 16 cross-rack
// connections, 64 KiB ops alternating Read and Write. Every ToR<->spine port
// drops 1 % of frames (2 % per path) and delays 2 % of them by 8 us.
func buildLossyMixed(seed int64, rng *rand.Rand) *world {
	const perRack, spines, portLoss = 16, 4, 0.01
	s := sim.NewWithScheduler(seed, sim.SchedulerWheel)
	topo := netsim.Clos(s, 2, perRack, spines, accessLink, fabricLink)
	cl := core.NewCluster(s)
	w := &world{sim: s, net: topo.Net, size: fixedSize(64 << 10), shape: topoShape{2, perRack, spines}}
	w.addNodes(cl, topo.Hosts, core.DefaultNodeConfig())
	w.uplinks = torUplinks(topo, perRack)
	impaired := append([]*netsim.Port(nil), w.uplinks...)
	for _, sp := range topo.Spines {
		impaired = append(impaired, sp.RouteTo(topo.Hosts[0].ID)...)
		impaired = append(impaired, sp.RouteTo(topo.Hosts[perRack].ID)...)
	}
	for _, p := range impaired {
		p.SetDropProb(portLoss)
		p.SetReorder(0.02, 8*time.Microsecond)
	}
	w.pathLoss = 1 - (1-portLoss)*(1-portLoss) // a path crosses two impaired ports
	for i, j := range rng.Perm(perRack) {
		// Half the initiators sit in each rack, so data flows both ways.
		a, b := w.nodes[i], w.nodes[perRack+j]
		if i%2 == 1 {
			a, b = b, a
		}
		w.connect(cl, a, b)
	}
	return w
}

// buildIncastConns: star of 5 clients and 1 server, 200 QPs per client, all
// reading 64 KiB from the server: 1000 connections share the server node's
// tl.Resources, NIC connection cache (sized 512 here so that it is smaller
// than the connection count, the Figure 21 regime) and FAE.
func buildIncastConns(seed int64, rng *rand.Rand) *world {
	const clients, qpsPerClient = 5, 200
	s := sim.NewWithScheduler(seed, sim.SchedulerWheel)
	topo := netsim.Star(s, clients+1, accessLink)
	cl := core.NewCluster(s)
	cfg := core.DefaultNodeConfig()
	cfg.NIC.CacheSize = 512
	cfg.FAE.UseECN = true
	w := &world{sim: s, net: topo.Net, size: fixedSize(64 << 10), shape: topoShape{perRack: clients + 1}}
	w.addNodes(cl, topo.Hosts, cfg)
	for _, p := range topo.Net.Ports() {
		p.SetECNThreshold(128 << 10)
	}
	server := w.nodes[0]
	// The seed fixes which client owns which connection ID.
	for _, k := range rng.Perm(clients * qpsPerClient) {
		w.connect(cl, w.nodes[1+k%clients], server)
	}
	return w
}
