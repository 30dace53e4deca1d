// Package core assembles the Falcon stack — NIC pipeline model, Packet
// Delivery Layer, Transaction Layer, and Falcon Adaptive Engine — onto the
// simulated Ethernet fabric of internal/netsim. It is the public entry
// point the ULPs (internal/rdma, internal/nvme), the root package's
// Example, and every benchmark build on.
//
// A Cluster owns one Node per fabric host; Connect establishes a
// bidirectional Falcon connection between two nodes, returning the two
// Endpoints. Each Endpoint exposes its Transaction Layer for issuing
// Push/Pull transactions and its PDL/TL/NIC stats for measurement.
package core

import (
	"fmt"
	"sort"

	"falcon/internal/falcon/fae"
	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/nic"
	"falcon/internal/psp"
	"falcon/internal/sim"
)

// NodeConfig parameterizes one Falcon node (NIC + shared resources + FAE).
type NodeConfig struct {
	NIC       nic.Config
	Resources tl.ResourceConfig
	FAE       fae.Config
	// PSPMasterKey, when set, enables inline encryption (§3.1): every
	// packet this node receives must be PSP-sealed against a key derived
	// from this master key and the connection ID, and packets it sends
	// are sealed against the peer's key. Both endpoints of a connection
	// must have keys configured.
	PSPMasterKey []byte
}

// DefaultNodeConfig returns the 200G-IPU settings.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		NIC:       nic.DefaultConfig(),
		Resources: tl.DefaultResourceConfig(),
		FAE:       fae.DefaultConfig(),
	}
}

// ConnConfig parameterizes one connection (both endpoints).
type ConnConfig struct {
	PDL pdl.Config
	TL  tl.Config
}

// DefaultConnConfig returns an ordered, multipath connection.
func DefaultConnConfig() ConnConfig {
	return ConnConfig{PDL: pdl.DefaultConfig(), TL: tl.DefaultConfig()}
}

// Cluster owns the Falcon nodes attached to one simulated fabric.
type Cluster struct {
	sim   *sim.Simulator
	nodes map[netsim.NodeID]*Node
	// pool is the transport packet pool shared by every node of the
	// cluster; see wire.PacketPool.
	pool *wire.PacketPool
	// onDrop is reclaim as a func value, bound once so the egress path can
	// hang it on every frame without allocating.
	onDrop     func(payload any)
	nextConnID uint32
}

// reclaim is the netsim.Frame.OnDrop hook of every frame that carries a
// pooled packet: the fabric discarded the frame, so the wire's hold is
// released into the pool instead of the packet going to the garbage
// collector.
func (cl *Cluster) reclaim(payload any) {
	if p, ok := payload.(*wire.Packet); ok {
		cl.pool.Release(p)
	}
}

// NewCluster creates an empty cluster on the simulator.
func NewCluster(s *sim.Simulator) *Cluster {
	cl := &Cluster{
		sim:        s,
		nodes:      make(map[netsim.NodeID]*Node),
		pool:       wire.NewPacketPool(),
		nextConnID: 1,
	}
	cl.onDrop = cl.reclaim
	return cl
}

// Sim returns the owning simulator.
func (cl *Cluster) Sim() *sim.Simulator { return cl.sim }

// Endpoints returns every live endpoint in the cluster (measurement
// sweeps), ordered by (host, connection) so callers that fold over it with
// order-sensitive side effects stay deterministic.
func (cl *Cluster) Endpoints() []*Endpoint {
	var out []*Endpoint
	for _, n := range cl.nodes {
		for _, ep := range n.conns {
			out = append(out, ep)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].node.host.ID != out[j].node.host.ID {
			return out[i].node.host.ID < out[j].node.host.ID
		}
		return out[i].id < out[j].id
	})
	return out
}

// AddNode attaches a Falcon node to a fabric host. Each host carries at
// most one node: attaching twice would silently orphan the first node's
// connections.
func (cl *Cluster) AddNode(host *netsim.Host, cfg NodeConfig) *Node {
	if _, dup := cl.nodes[host.ID]; dup {
		panic(fmt.Sprintf("core: host %d already has a Falcon node", host.ID))
	}
	n := &Node{
		cluster: cl,
		host:    host,
		sim:     cl.sim,
		nic:     nic.New(cl.sim, cfg.NIC),
		res:     tl.NewResources(cfg.Resources),
		pool:    cl.pool,
		conns:   make(map[uint32]*Endpoint),
		pspKey:  cfg.PSPMasterKey,
	}
	n.engine = fae.New(cl.sim, cfg.FAE, n.applyFAEResponse)
	host.SetHandler(n)
	cl.nodes[host.ID] = n
	return n
}

// Node is one Falcon-equipped machine: the NIC model, the shared on-NIC
// resource pools, the FAE engine, and the connections terminating here.
type Node struct {
	cluster *Cluster
	host    *netsim.Host
	// sim and pool are the cluster's, held here so that the packet path
	// reaches them in one step.
	sim    *sim.Simulator
	pool   *wire.PacketPool
	nic    *nic.NIC
	res    *tl.Resources
	engine *fae.Engine
	conns  map[uint32]*Endpoint
	pspKey []byte
	// nicKeys is the number of endpoints created on this node: the next
	// Endpoint.nicKey.
	nicKeys uint32

	// Free lists for the per-packet NIC pipeline jobs (TX egress and RX
	// ingress), recycled as they fire.
	txJobs *txJob
	rxJobs *rxJob
}

// Host returns the underlying fabric host.
func (n *Node) Host() *netsim.Host { return n.host }

// NIC returns the node's NIC model (for impairments like PCIe downgrades).
func (n *Node) NIC() *nic.NIC { return n.nic }

// PacketPool returns the transport packet pool this node draws from, for
// leak and bound checks at quiescence.
func (n *Node) PacketPool() *wire.PacketPool { return n.pool }

// Resources returns the node's shared TL resource pools.
func (n *Node) Resources() *tl.Resources { return n.res }

// Engine returns the node's FAE.
func (n *Node) Engine() *fae.Engine { return n.engine }

// Crash tears down every connection terminating at this node, modeling a
// host crash whose connection state does not survive the restart: each
// endpoint's PDL is declared dead (erroring all pending transactions
// through the TL) and the endpoint is closed, so packets still in flight
// for those connections are dropped as stale on arrival. Peers are NOT
// notified in-band — exactly like a real crash, the remote side discovers
// the death through its own RTO budget. Connections are torn down in
// ascending connection-ID order so the fault is deterministic. Returns the
// number of connections torn down. Freezing the host around the crash
// window (netsim.Host.SetPaused) is the caller's job; a crash whose
// connection state survives is just a pause with no Crash call.
func (n *Node) Crash() int {
	ids := make([]uint32, 0, len(n.conns))
	for id := range n.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ep := n.conns[id]
		ep.pdl.Fail()
		ep.Close()
	}
	return len(ids)
}

// rxJob is the pooled NIC-ingress pass for one arriving packet: it runs
// after the pipeline's admission delay, hands the packet to the PDL, and
// releases the wire's hold (a layer above that retains the packet shares
// it and releases its own hold; see wire.PacketPool's ownership
// contract).
type rxJob struct {
	ep   *Endpoint
	pkt  *wire.Packet
	hops int
	next *rxJob
}

func (j *rxJob) RunAction() {
	ep, p, hops := j.ep, j.pkt, j.hops
	n := ep.node
	j.ep, j.pkt = nil, nil
	j.next = n.rxJobs
	n.rxJobs = j
	ep.pdl.HandlePacket(p, hops)
	n.pool.Release(p)
}

// HandleFrame implements netsim.Handler: NIC ingress.
func (n *Node) HandleFrame(f *netsim.Frame) {
	switch payload := f.Payload.(type) {
	case *wire.Packet:
		ep, ok := n.conns[payload.ConnID]
		if !ok {
			// Stale packet for a closed connection: drop, reclaiming
			// the fabric copy.
			n.pool.Release(payload)
			return
		}
		if f.CE {
			// The mark belongs to this arrival: the sender's PDL may
			// still hold the packet and retransmit it unmarked.
			payload = n.pool.Unshare(payload)
			payload.Flags |= wire.FlagCE
		}
		j := n.rxJobs
		if j == nil {
			j = &rxJob{}
		} else {
			n.rxJobs = j.next
		}
		j.ep, j.pkt, j.hops = ep, payload, f.Hops
		n.nic.ProcessAction(ep.nicKey, j)
	case sealedFrame:
		ep, ok := n.conns[payload.conn]
		if !ok || ep.rxSA == nil {
			return
		}
		buf, _, err := ep.rxSA.Open(payload.data)
		if err != nil {
			return // authentication failure: drop (the PDL retransmits)
		}
		var p wire.Packet
		if _, err := p.Unmarshal(buf); err != nil {
			return
		}
		if f.CE {
			p.Flags |= wire.FlagCE
		}
		hops := f.Hops
		n.nic.Process(ep.nicKey, func() { ep.pdl.HandlePacket(&p, hops) })
	}
}

func (n *Node) applyFAEResponse(r fae.Response) {
	ep, ok := n.conns[r.Conn]
	if !ok {
		return
	}
	ep.tl.SetAlpha(r.Alpha)
	ep.pdl.ApplyResponse(r)
}

// txJob is the pooled NIC-egress pass for one outbound packet: after the
// pipeline's admission delay it wraps the wire's hold on the packet in a
// fabric frame (sealing it first when PSP is on, which ends the hold) and
// transmits.
type txJob struct {
	ep   *Endpoint
	pkt  *wire.Packet
	next *txJob
}

func (j *txJob) RunAction() {
	ep, cp := j.ep, j.pkt
	n := ep.node
	j.ep, j.pkt = nil, nil
	j.next = n.txJobs
	n.txJobs = j
	frame := n.host.NewFrame()
	frame.Dst = ep.peer
	frame.FlowHash = flowHash(ep.id, cp.FlowLabel)
	frame.Size = cp.WireSize()
	if ep.txSA != nil {
		sealed, err := ep.txSA.Seal(cp.Marshal(nil), pspCryptOffset, 0)
		n.pool.Release(cp)
		if err != nil {
			return
		}
		frame.Payload = sealedFrame{conn: ep.id, data: sealed}
		frame.Size += psp.Overhead
	} else {
		frame.Payload = cp
		frame.OnDrop = n.cluster.onDrop
	}
	n.host.Send(frame)
}

// Endpoint is one side of a Falcon connection.
type Endpoint struct {
	node *Node
	id   uint32
	peer netsim.NodeID
	// nicKey is the endpoint's dense index on its node, the key of the
	// NIC's per-connection pipeline and cache state: those tables then grow
	// with the node's own connections, not with the cluster-wide ID.
	nicKey uint32

	pdl *pdl.Conn
	tl  *tl.Conn

	// Inline encryption SAs (nil when PSP is off). txSA seals against
	// the peer's device key; rxSA opens packets sealed for this node.
	txSA *psp.SA
	rxSA *psp.SA
}

// sealedFrame is the fabric payload of a PSP-encrypted Falcon packet.
type sealedFrame struct {
	conn uint32
	data []byte
}

// pspCryptOffset leaves the leading header fields (type/flags through the
// flow label) cleartext-but-authenticated so switches can hash on the flow
// label; everything after is encrypted.
const pspCryptOffset = 16

// ID returns the connection ID (shared by both endpoints).
func (e *Endpoint) ID() uint32 { return e.id }

// Node returns the owning node.
func (e *Endpoint) Node() *Node { return e.node }

// Sim returns the simulator driving this endpoint.
func (e *Endpoint) Sim() *sim.Simulator { return e.node.sim }

// TL returns the endpoint's transaction layer, the ULP-facing API.
func (e *Endpoint) TL() *tl.Conn { return e.tl }

// PDL returns the endpoint's packet delivery layer (stats, windows).
func (e *Endpoint) PDL() *pdl.Conn { return e.pdl }

// SetTarget installs the target-side ULP handler.
func (e *Endpoint) SetTarget(h tl.TargetHandler) { e.tl.SetTarget(h) }

// Push initiates a push transaction (≤ MTU).
func (e *Endpoint) Push(data []byte, length uint32, done func([]byte, error)) (uint64, error) {
	return e.tl.Push(data, length, done)
}

// Pull initiates a pull transaction (≤ MTU).
func (e *Endpoint) Pull(length uint32, done func([]byte, error)) (uint64, error) {
	return e.tl.Pull(length, done)
}

// Connect establishes a Falcon connection between nodes a and b with the
// given configuration, returning (a's endpoint, b's endpoint). Both
// endpoints share one connection ID, unique within the cluster.
func (cl *Cluster) Connect(a, b *Node, cfg ConnConfig) (*Endpoint, *Endpoint) {
	if a == b {
		panic("core: cannot connect a node to itself")
	}
	id := cl.nextConnID
	cl.nextConnID++
	epA := newEndpoint(a, id, b.host.ID, cfg)
	epB := newEndpoint(b, id, a.host.ID, cfg)
	if a.pspKey != nil || b.pspKey != nil {
		if a.pspKey == nil || b.pspKey == nil {
			panic("core: PSP requires a master key on both nodes")
		}
		if err := epA.enablePSP(b.pspKey); err != nil {
			panic(err)
		}
		if err := epB.enablePSP(a.pspKey); err != nil {
			panic(err)
		}
	}
	a.conns[id] = epA
	b.conns[id] = epB
	return epA, epB
}

func newEndpoint(n *Node, id uint32, peer netsim.NodeID, cfg ConnConfig) *Endpoint {
	ep := &Endpoint{node: n, id: id, peer: peer, nicKey: n.nicKeys}
	n.nicKeys++

	cb := pdl.Callbacks{
		Send: func(p *wire.Packet) {
			// The wire takes its own hold on the packet, released when
			// the NIC egress job has sealed it (PSP) or by the receiving
			// node after delivery (cleartext). The PDL unshares before
			// it stamps a retransmission, so the packet in flight never
			// changes under the wire.
			cp := n.pool.Share(p)
			j := n.txJobs
			if j == nil {
				j = &txJob{}
			} else {
				n.txJobs = j.next
			}
			j.ep, j.pkt = ep, cp
			n.nic.ProcessAction(ep.nicKey, j)
		},
		Deliver: func(p *wire.Packet) pdl.DeliverVerdict {
			v := ep.tl.Deliver(p)
			if v.Kind == pdl.DeliverAccept && p.Length > 0 {
				// Payload DMA to host memory occupies the RX
				// buffer until the host interface drains it.
				n.nic.DeliverToHost(int(p.Length), nil)
			}
			return v
		},
		PacketAcked: func(space wire.Space, psn uint32, rsn uint64, typ wire.Type) {
			ep.tl.PacketAcked(space, psn, rsn, typ)
		},
		Completed:    func(rsn uint64) { ep.tl.Completed(rsn) },
		NackReceived: func(p *wire.Packet) { ep.tl.NackReceived(p) },
		Failed:       func(err error) { ep.tl.Fail(err) },
		PostEvent:    func(ev fae.Event) { n.engine.Post(ev) },
		RxBufOccupancy: func() float64 {
			occ := ep.tl.RxOccupancy()
			if nicOcc := n.nic.RxOccupancy(); nicOcc > occ {
				occ = nicOcc
			}
			return occ
		},
		CompletedRSN: func() uint64 { return ep.tl.CompletedRSN() },
	}

	ep.pdl = pdl.NewConn(n.sim, id, cfg.PDL, cb)
	ep.pdl.SetPacketPool(n.pool)
	ep.tl = tl.NewConn(n.sim, id, cfg.TL, n.res, ep.pdl, nil)
	ep.tl.SetPacketPool(n.pool)
	labels := n.engine.RegisterConn(id, cfg.PDL.NumFlows)
	ep.pdl.SetFlowLabels(labels)
	return ep
}

// enablePSP installs the endpoint's security associations: transmit
// against the peer device's key, receive against this device's key. The
// PDL tolerates reordering above this layer, so the receive SA's replay
// window is disabled (multipath reorders legitimately).
func (e *Endpoint) enablePSP(peerKey []byte) error {
	tx, err := psp.NewSA(peerKey, e.id)
	if err != nil {
		return err
	}
	rx, err := psp.NewSA(e.node.pspKey, e.id)
	if err != nil {
		return err
	}
	rx.ReplayWindowDisabled = true
	e.txSA, e.rxSA = tx, rx
	return nil
}

// Close tears down an endpoint pair (both sides must be closed by the
// caller via their own Close).
func (e *Endpoint) Close() {
	delete(e.node.conns, e.id)
	e.node.engine.UnregisterConn(e.id)
}

// flowHash derives the ECMP hash input from the connection and flow label,
// standing in for the (4-tuple, IPv6 flow label) hash real switches use.
// Changing the label's path bits repaths the flow.
func flowHash(conn uint32, label wire.FlowLabel) uint64 {
	return uint64(conn)<<32 ^ uint64(label)
}

func (e *Endpoint) String() string {
	return fmt.Sprintf("endpoint(conn=%d node=%d peer=%d)", e.id, e.node.host.ID, e.peer)
}
