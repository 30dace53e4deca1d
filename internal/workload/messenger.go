// Package workload implements the application workloads of §6.3 and the
// traffic generators the benchmark harness drives: MPI collectives
// (AllReduce, AllToAll, AllGather, MultiPingPong), the compute-communicate
// iteration model standing in for GROMACS and WRF, the VM live-migration
// model of Figure 29, and generic closed-loop/Poisson issuers.
//
// Workloads are written against the Messenger interface so the same
// collective code runs over RDMA-Falcon and over the TCP software stack —
// the comparison the paper's Figures 25–31 make.
//
// Every generator is deterministic and self-contained: randomness (Poisson
// gaps, jittered compute times) comes exclusively from the owning
// simulator's seeded RNG via sim.Rand(), never from package-level
// math/rand (enforced by internal/testkit's TestNoGlobalRand). Because a
// workload touches no state outside its simulator, whole experiments are
// embarrassingly parallel — falconbench -parallel runs one experiment per
// goroutine, each with its own simulators, and produces bit-identical
// tables at any pool width.
package workload

import (
	"fmt"
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
	"falcon/internal/swtransport"
)

// Messenger moves messages between ranks of a parallel job.
type Messenger interface {
	// Send moves n bytes from rank `from` to rank `to`; done fires when
	// the message is delivered.
	Send(from, to, n int, done func())
	// Ranks returns the job size.
	Ranks() int
}

// localCopyDelay models an intra-node (shared-memory) message.
const localCopyDelay = time.Microsecond

// FalconMessenger runs ranks over RDMA-Falcon: one QP per communicating
// rank pair, created lazily. Messages are RDMA Writes (delivery = write
// completion).
type FalconMessenger struct {
	sim          *sim.Simulator
	cluster      *core.Cluster
	nodes        []*core.Node
	ranks        int
	ranksPerNode int
	connCfg      core.ConnConfig

	qps map[[2]int]*rdma.QP
}

// NewFalconMessenger builds the messenger over an existing Falcon cluster.
// ranks are assigned round-robin blocks of ranksPerNode to nodes.
func NewFalconMessenger(cl *core.Cluster, nodes []*core.Node, ranks, ranksPerNode int, connCfg core.ConnConfig) *FalconMessenger {
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	need := (ranks + ranksPerNode - 1) / ranksPerNode
	if need > len(nodes) {
		panic(fmt.Sprintf("workload: %d ranks at %d/node need %d nodes, have %d", ranks, ranksPerNode, need, len(nodes)))
	}
	return &FalconMessenger{
		sim:          cl.Sim(),
		cluster:      cl,
		nodes:        nodes,
		ranks:        ranks,
		ranksPerNode: ranksPerNode,
		connCfg:      connCfg,
		qps:          make(map[[2]int]*rdma.QP),
	}
}

// Ranks implements Messenger.
func (m *FalconMessenger) Ranks() int { return m.ranks }

func (m *FalconMessenger) nodeOf(rank int) *core.Node {
	return m.nodes[rank/m.ranksPerNode]
}

func (m *FalconMessenger) qp(from, to int) *rdma.QP {
	key := [2]int{from, to}
	if qp, ok := m.qps[key]; ok {
		return qp
	}
	epA, epB := m.cluster.Connect(m.nodeOf(from), m.nodeOf(to), m.connCfg)
	qa := rdma.NewQP(epA, rdma.Config{})
	qb := rdma.NewQP(epB, rdma.Config{})
	qa.RegisterMemoryLen(1 << 40)
	qb.RegisterMemoryLen(1 << 40)
	m.qps[key] = qa
	return qa
}

// Send implements Messenger.
func (m *FalconMessenger) Send(from, to, n int, done func()) {
	if m.nodeOf(from) == m.nodeOf(to) {
		m.sim.After(localCopyDelay, done)
		return
	}
	m.qp(from, to).Write(0, 0, nil, n, func(c rdma.Completion) {
		if done != nil {
			done()
		}
	})
}

// SWMessenger runs ranks over a software transport (Pony Express or TCP).
type SWMessenger struct {
	sim          *sim.Simulator
	nodes        []*swtransport.Node
	ranks        int
	ranksPerNode int

	conns  map[[2]int]*swtransport.Conn
	nextID uint32
}

// NewSWMessenger builds the messenger over software-transport nodes.
func NewSWMessenger(s *sim.Simulator, nodes []*swtransport.Node, ranks, ranksPerNode int) *SWMessenger {
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	need := (ranks + ranksPerNode - 1) / ranksPerNode
	if need > len(nodes) {
		panic(fmt.Sprintf("workload: %d ranks at %d/node need %d nodes, have %d", ranks, ranksPerNode, need, len(nodes)))
	}
	return &SWMessenger{sim: s, nodes: nodes, ranks: ranks, ranksPerNode: ranksPerNode,
		conns: make(map[[2]int]*swtransport.Conn), nextID: 1}
}

// Ranks implements Messenger.
func (m *SWMessenger) Ranks() int { return m.ranks }

func (m *SWMessenger) node(rank int) *swtransport.Node { return m.nodes[rank/m.ranksPerNode] }

// Send implements Messenger.
func (m *SWMessenger) Send(from, to, n int, done func()) {
	if m.node(from) == m.node(to) {
		m.sim.After(localCopyDelay, done)
		return
	}
	key := [2]int{from, to}
	c, ok := m.conns[key]
	if !ok {
		c = swtransport.Connect(m.node(from), m.node(to), m.nextID)
		m.nextID++
		m.conns[key] = c
	}
	c.Send(n, done)
}

// BuildFalconJob provisions a Clos fabric, a Falcon cluster and a
// messenger for an n-node job — the common setup for the MPI and HPC
// benchmarks.
func BuildFalconJob(s *sim.Simulator, nodesCount, ranksPerNode int, ranks int) (*FalconMessenger, *netsim.Topology) {
	hostsPerRack := nodesCount
	racks := 1
	if nodesCount > 16 {
		racks = 2
		hostsPerRack = (nodesCount + 1) / 2
	}
	link := netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
	fabric := netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * time.Microsecond}
	topo := netsim.Clos(s, racks, hostsPerRack, 4, link, fabric)
	cl := core.NewCluster(s)
	var nodes []*core.Node
	for i := 0; i < nodesCount; i++ {
		nodes = append(nodes, cl.AddNode(topo.Hosts[i], core.DefaultNodeConfig()))
	}
	return NewFalconMessenger(cl, nodes, ranks, ranksPerNode, core.DefaultConnConfig()), topo
}

// BuildSWJob provisions the same fabric with a software transport.
func BuildSWJob(s *sim.Simulator, nodesCount, ranksPerNode, ranks int, profile swtransport.Profile) (*SWMessenger, *netsim.Topology) {
	hostsPerRack := nodesCount
	racks := 1
	if nodesCount > 16 {
		racks = 2
		hostsPerRack = (nodesCount + 1) / 2
	}
	link := netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
	fabric := netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * time.Microsecond}
	topo := netsim.Clos(s, racks, hostsPerRack, 4, link, fabric)
	var nodes []*swtransport.Node
	for i := 0; i < nodesCount; i++ {
		nodes = append(nodes, swtransport.NewNode(s, topo.Hosts[i], profile))
	}
	return NewSWMessenger(s, nodes, ranks, ranksPerNode), topo
}
