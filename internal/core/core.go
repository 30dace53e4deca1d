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
	sim *sim.Simulator
	// nodes is indexed by host ID (nil where a host has no node).
	nodes []*Node
	// conns is indexed by connection ID: the two endpoints of each
	// connection, nil once closed. A node finds an arriving packet's
	// endpoint here, as the entry whose node it is.
	conns [][2]*Endpoint
	// pool is the transport packet pool shared by every node of the
	// cluster; see wire.PacketPool.
	pool *wire.PacketPool
	// onDrop is reclaim as a func value, bound once so the egress path can
	// hang it on every frame without allocating.
	onDrop func(payload any)

	// txJobs and rxJobs recycle every node's per-packet NIC pipeline jobs
	// (egress and ingress) as they fire, and first is the first node
	// added, whose host-delivery and transaction-context free lists every
	// later node's NIC and Resources share. One LIFO list per pooled type
	// per event loop keeps the cluster's peak in flight once, not once per
	// node, and hands the next packet the object the last one released.
	txJobs sim.FreeList[txJob]
	rxJobs sim.FreeList[rxJob]
	first  *Node
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
		sim: s,
		// Connection IDs start at 1; slot 0 is never used.
		conns: make([][2]*Endpoint, 1),
		pool:  wire.NewPacketPool(),
	}
	cl.onDrop = cl.reclaim
	return cl
}

// FreeLists calls visit with the built and free counts of every free list
// on the cluster's Falcon path, for leak checks at quiescence: the NIC
// ingress and egress jobs, host-delivery completions and transaction
// contexts its nodes share, each once, and the NACK- and RNR-retry events
// of the open connections, each summed over them. Once a run has drained,
// free equals built on every list.
func (cl *Cluster) FreeLists(visit func(name string, built, free int)) {
	visit("rx jobs", cl.rxJobs.Built(), cl.rxJobs.Free())
	visit("tx jobs", cl.txJobs.Built(), cl.txJobs.Free())
	var hb, hf, tb, tf int
	if n := cl.first; n != nil {
		hb, hf = n.nic.HostEvents()
		tb, tf = n.res.TxnContexts()
	}
	visit("host events", hb, hf)
	visit("transaction contexts", tb, tf)
	var nb, nf, rb, rf int
	for _, n := range cl.nodes {
		if n == nil {
			continue
		}
		for _, ep := range n.eps {
			if ep == nil {
				continue
			}
			b, f := ep.pdl.NackRetryEvents()
			nb, nf = nb+b, nf+f
			b, f = ep.tl.RetryEvents()
			rb, rf = rb+b, rf+f
		}
	}
	visit("NACK-retry events", nb, nf)
	visit("RNR-retry events", rb, rf)
}

// Sim returns the owning simulator.
func (cl *Cluster) Sim() *sim.Simulator { return cl.sim }

// Endpoints returns every live endpoint in the cluster (measurement
// sweeps), ordered by (host, connection) so callers that fold over it with
// order-sensitive side effects stay deterministic. A node's keys follow
// Connect order, so walking them is ascending connection ID.
func (cl *Cluster) Endpoints() []*Endpoint {
	var out []*Endpoint
	for _, n := range cl.nodes {
		if n == nil {
			continue
		}
		for _, ep := range n.eps {
			if ep != nil {
				out = append(out, ep)
			}
		}
	}
	return out
}

// AddNode attaches a Falcon node to a fabric host. Each host carries at
// most one node: attaching twice would silently orphan the first node's
// connections.
func (cl *Cluster) AddNode(host *netsim.Host, cfg NodeConfig) *Node {
	if int(host.ID) < len(cl.nodes) && cl.nodes[host.ID] != nil {
		panic(fmt.Sprintf("core: host %d already has a Falcon node", host.ID))
	}
	n := &Node{
		cluster: cl,
		host:    host,
		sim:     cl.sim,
		nic:     nic.New(cl.sim, cfg.NIC),
		res:     tl.NewResources(cfg.Resources),
		pool:    cl.pool,
		pspKey:  cfg.PSPMasterKey,
	}
	if cl.first == nil {
		cl.first = n
	} else {
		n.nic.ShareHostEvents(cl.first.nic)
		n.res.ShareTxnContexts(cl.first.res)
	}
	n.engine = fae.New(cl.sim, cfg.FAE, n.applyFAEResponse)
	host.SetHandler(n)
	for int(host.ID) >= len(cl.nodes) {
		cl.nodes = append(cl.nodes, nil)
	}
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
	// eps is indexed by Endpoint.key, nil once an endpoint is closed.
	eps    []*Endpoint
	pspKey []byte
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
// ascending connection-ID order, which is key order (keys follow Connect
// order), so the fault is deterministic. Returns the number of
// connections torn down. Freezing the host around the crash window
// (netsim.Host.SetPaused) is the caller's job; a crash whose connection
// state survives is just a pause with no Crash call.
func (n *Node) Crash() int {
	torn := 0
	for _, ep := range n.eps {
		if ep == nil {
			continue
		}
		ep.pdl.Fail()
		ep.Close()
		torn++
	}
	return torn
}

// rxJob is the pooled NIC-ingress pass for one arriving packet: it runs
// after the pipeline's admission delay, hands the packet to the PDL, and
// releases the hold it carries, the wire's or, for a PSP frame, that of
// the packet decrypted into the pool (a layer above that retains the
// packet shares it and releases its own hold; see wire.PacketPool's
// ownership contract).
type rxJob struct {
	ep   *Endpoint
	pkt  *wire.Packet
	hops int
}

func (j *rxJob) RunAction() {
	ep, p, hops := j.ep, j.pkt, j.hops
	n := ep.node
	j.ep, j.pkt = nil, nil
	n.cluster.rxJobs.Put(j)
	ep.pdl.HandlePacket(p, hops)
	n.pool.Release(p)
}

// endpoint returns this node's live endpoint of connection id, or nil for
// a stale or misaddressed packet: an ID never handed out, a closed
// connection, or one that does not terminate here.
func (n *Node) endpoint(id uint32) *Endpoint {
	conns := n.cluster.conns
	if int(id) >= len(conns) {
		return nil
	}
	pair := &conns[id]
	if ep := pair[0]; ep != nil && ep.node == n {
		return ep
	}
	if ep := pair[1]; ep != nil && ep.node == n {
		return ep
	}
	return nil
}

// HandleFrame implements netsim.Handler: NIC ingress.
func (n *Node) HandleFrame(f *netsim.Frame) {
	switch payload := f.Payload.(type) {
	case *wire.Packet:
		ep := n.endpoint(payload.ConnID)
		if ep == nil {
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
		n.ingress(ep, payload, f.Hops)
	case sealedFrame:
		ep := n.endpoint(payload.conn)
		if ep == nil || ep.rxSA == nil {
			return
		}
		buf, _, err := ep.rxSA.Open(payload.data)
		if err != nil {
			return // authentication failure: drop (the PDL retransmits)
		}
		p := n.pool.Acquire()
		if _, err := p.Unmarshal(buf); err != nil {
			n.pool.Release(p)
			return
		}
		if f.CE {
			p.Flags |= wire.FlagCE
		}
		n.ingress(ep, p, f.Hops)
	}
}

// ingress hands one arriving packet, held by the caller, to the NIC
// pipeline on a pooled rxJob, which passes the hold on to the PDL pass.
func (n *Node) ingress(ep *Endpoint, p *wire.Packet, hops int) {
	j := n.cluster.rxJobs.Get()
	j.ep, j.pkt, j.hops = ep, p, hops
	n.nic.ProcessAction(ep.key, j)
}

// applyFAEResponse is the FAE's sink; r.Conn is the endpoint's key.
func (n *Node) applyFAEResponse(r fae.Response) {
	if int(r.Conn) >= len(n.eps) {
		return
	}
	ep := n.eps[r.Conn]
	if ep == nil {
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
	ep  *Endpoint
	pkt *wire.Packet
}

func (j *txJob) RunAction() {
	ep, cp := j.ep, j.pkt
	n := ep.node
	j.ep, j.pkt = nil, nil
	n.cluster.txJobs.Put(j)
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
	// key is the endpoint's dense index on its node: its slot in
	// Node.eps, its FAE connection and the key of the NIC's
	// per-connection pipeline and cache state, so every per-node table
	// grows with the node's own connections, not with the cluster-wide ID.
	key uint32

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
	id := uint32(len(cl.conns))
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
	cl.conns = append(cl.conns, [2]*Endpoint{epA, epB})
	return epA, epB
}

func newEndpoint(n *Node, id uint32, peer netsim.NodeID, cfg ConnConfig) *Endpoint {
	ep := &Endpoint{node: n, id: id, peer: peer, key: uint32(len(n.eps))}
	n.eps = append(n.eps, ep)
	ep.pdl = pdl.NewConn(n.sim, id, cfg.PDL, (*upcalls)(ep))
	ep.pdl.SetPacketPool(n.pool)
	ep.tl = tl.NewConn(n.sim, id, cfg.TL, n.res, ep.pdl, nil)
	ep.tl.SetPacketPool(n.pool)
	labels := n.engine.RegisterConn(ep.key, cfg.PDL.NumFlows)
	ep.pdl.SetFlowLabels(labels)
	return ep
}

// upcalls is an endpoint as its PDL calls up into it (pdl.Upper): packets
// go to the NIC's egress, deliveries and acknowledgments to the TL, and
// events to the node's FAE.
type upcalls Endpoint

// Transmit queues p for the NIC egress pipeline. The wire takes its own
// hold on the packet, released when the NIC egress job has sealed it (PSP)
// or by the receiving node after delivery (cleartext). The PDL unshares
// before it stamps a retransmission, so the packet in flight never changes
// under the wire.
func (u *upcalls) Transmit(p *wire.Packet) {
	n := u.node
	cp := n.pool.Share(p)
	j := n.cluster.txJobs.Get()
	j.ep, j.pkt = (*Endpoint)(u), cp
	n.nic.ProcessAction(u.key, j)
}

// DeliverData hands p to the TL.
func (u *upcalls) DeliverData(p *wire.Packet) pdl.DeliverVerdict {
	v := u.tl.Deliver(p)
	if v.Kind == pdl.DeliverAccept && p.Length > 0 {
		// Payload DMA to host memory occupies the RX buffer until the
		// host interface drains it.
		u.node.nic.DeliverToHost(int(p.Length), nil)
	}
	return v
}

func (u *upcalls) Acked(space wire.Space, psn uint32, rsn uint64, typ wire.Type) {
	u.tl.PacketAcked(space, psn, rsn, typ)
}
func (u *upcalls) AdvanceHorizon(rsn uint64) { u.tl.Completed(rsn) }
func (u *upcalls) Nacked(p *wire.Packet)     { u.tl.NackReceived(p) }
func (u *upcalls) Fail(err error)            { u.tl.Fail(err) }
func (u *upcalls) Horizon() uint64           { return u.tl.CompletedRSN() }

// Post posts ev to the node's FAE under the endpoint's key.
func (u *upcalls) Post(ev fae.Event) {
	ev.Conn = u.key
	u.node.engine.Post(ev)
}

// RxOccupancy is the fuller of the TL's and the NIC's RX buffers.
func (u *upcalls) RxOccupancy() float64 {
	occ := u.tl.RxOccupancy()
	if nicOcc := u.node.nic.RxOccupancy(); nicOcc > occ {
		occ = nicOcc
	}
	return occ
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
	n := e.node
	if n.eps[e.key] != e {
		return
	}
	n.eps[e.key] = nil
	pair := &n.cluster.conns[e.id]
	for i := range pair {
		if pair[i] == e {
			pair[i] = nil
		}
	}
	n.engine.UnregisterConn(e.key)
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
