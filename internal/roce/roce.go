// Package roce implements the RoCE (RDMA over Converged Ethernet) baseline
// the paper evaluates Falcon against (§2, §6.1). The model captures the
// behaviours the paper attributes to CX-7-class NICs:
//
//   - Go-Back-N loss recovery (Mode GBN): the receiver accepts only
//     in-sequence packets, drops everything out of order, and NAKs the
//     expected PSN; the sender rewinds and retransmits the whole window.
//   - Selective Repeat (Mode SR): available only for RDMA Writes and Read
//     Responses — the receiver buffers those out of order and emits one NAK
//     per out-of-order arrival naming the missing PSN; Sends and Read
//     Requests still get GBN treatment ("RoCE-SR is not available to these
//     IB Verbs ops", §6.1.1).
//   - Adaptive Routing mode (Mode AR): tolerates reordering (no NAKs at
//     all), so losses are recovered only by retransmission timeout —
//     "packet capture traces show no signal from the target for immediate
//     retransmission" (§6.1.1).
//   - RTTCC congestion control: probe-based rate control (out-of-band RTT
//     probes rather than per-packet timestamps), giving the sluggish
//     congestion response the paper describes (§2: "its congestion
//     response [is] sluggish").
//
// Like Falcon, RoCE rides the shared internal/netsim fabric; a QP uses a
// single network path (no multipath protocol support). It keeps its PSN
// state in ring.Tables and its packets and op descriptors in wire.Pools,
// under the Falcon stack's holder-count contract (DESIGN.md §11).
package roce

import (
	"time"

	"falcon/internal/falcon/ring"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/nic"
	"falcon/internal/sim"
)

// Mode selects the loss-recovery scheme.
type Mode int

const (
	// GBN is go-back-N: in-order-only receiver, full-window rewinds.
	GBN Mode = iota
	// SR is selective repeat for Writes/Read Responses only.
	SR
	// AR is adaptive-routing mode: reorder-tolerant, timeout-only
	// recovery.
	AR
)

func (m Mode) String() string {
	switch m {
	case GBN:
		return "RoCE-GBN"
	case SR:
		return "RoCE-SR"
	case AR:
		return "RoCE-AR"
	}
	return "RoCE-?"
}

// OpKind is the IB Verbs operation class.
type OpKind int

const (
	// OpWrite is RDMA WRITE.
	OpWrite OpKind = iota
	// OpSend is RDMA SEND.
	OpSend
	// OpRead is RDMA READ.
	OpRead
)

func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpSend:
		return "send"
	}
	return "read"
}

// packet types on the wire.
type pktType int

const (
	ptWrite pktType = iota
	ptSend
	ptReadReq
	ptReadResp
	ptAck
	ptNak
	ptProbe
	ptProbeResp
)

// packet is one RoCE wire packet (modeled). Packets come from the pktPool
// both ends of a QP pair share, under wire.Pool's holder count: the end
// that builds a packet holds it; end.send hands one hold to the fabric,
// which the receiving node releases after the handler returns (or the
// frame's OnDrop, when the fabric drops it); and a table that keeps a
// packet (the sender's retransmission state, the receiver's out-of-order
// buffer) holds it until it forgets it. A shared packet is read-only.
type packet struct {
	Type pktType
	// QP is the receiving end's QP number: its index in its node's qps.
	QP  uint32
	PSN uint32
	// Size is payload bytes (data packets).
	Size int
	// RespPSNs is, on read requests, how many response packets the
	// request solicits.
	RespPSNs uint32
	// RespBytes is the per-response-packet size for this read.
	RespBytes int
	// AckPSN is the cumulative acknowledgment (all PSNs below received).
	AckPSN uint32
	// NakPSN is the PSN the receiver wants (expected/missing).
	NakPSN uint32
	// Stream distinguishes the request stream (client→server) from the
	// response stream (server→client).
	Stream int
	// T1 is the probe transmit timestamp.
	T1 int64
	// op is, on a request-stream packet, the operation it belongs to (the
	// requester's own state; the responder never reads it).
	op *op
	wire.Holds
}

type pktPool = wire.Pool[packet, *packet]

const headerBytes = 58 // IB BTH+ETH+IP overhead, modeled

// streams
const (
	streamReq = iota
	streamResp
)

// RTTCCConfig parameterizes the probe-based congestion control.
type RTTCCConfig struct {
	// TargetRTT is the probe-RTT threshold separating increase from
	// decrease.
	TargetRTT time.Duration
}

// DefaultRTTCC returns RTTCC settings for a 200G NIC in a shallow fabric.
func DefaultRTTCC() RTTCCConfig {
	return RTTCCConfig{TargetRTT: 40 * time.Microsecond}
}

// RTTCC's fixed constants for a 200G NIC in a shallow fabric.
const (
	// rttccProbeInterval is how often an RTT probe is sent while data is
	// in flight. Rate only adapts when probe responses return — the
	// source of RTTCC's slower reaction compared to per-packet delay CC.
	rttccProbeInterval = 50 * time.Microsecond
	// rttccMinRateGbps/rttccMaxRateGbps bound the sending rate.
	rttccMinRateGbps, rttccMaxRateGbps = 0.5, 200
	// rttccAIGbps is the additive increase per probe below target.
	rttccAIGbps = 4
	// rttccMD is the multiplicative decrease factor per probe above
	// target.
	rttccMD = 0.85
)

// Config parameterizes a QP pair.
type Config struct {
	Mode       Mode
	MTU        int
	WindowSize int // max outstanding packets per stream
	RTO        time.Duration
	CC         RTTCCConfig
	// LinkGbps seeds the initial rate.
	LinkGbps float64
}

// DefaultConfig returns the evaluation's RoCE settings.
func DefaultConfig() Config {
	return Config{
		Mode:       GBN,
		MTU:        4096,
		WindowSize: 128,
		RTO:        500 * time.Microsecond,
		CC:         DefaultRTTCC(),
		LinkGbps:   200,
	}
}

// Node hosts RoCE QPs on one fabric host.
type Node struct {
	sim  *sim.Simulator
	host *netsim.Host
	nic  *nic.NIC
	// qps holds this node's QP ends by QP number, which is also their
	// key in the NIC model: dense per node, like core's NIC keys.
	qps []*end

	// sendFree/handleFree recycle the NIC-pipeline continuations (one per
	// packet TX and RX pass). They are pooled sim.Actions scheduled via
	// nic.ProcessAction, keeping the per-packet path allocation-free.
	sendFree   sim.FreeList[sendReq]
	handleFree sim.FreeList[handleReq]
}

// NewNode attaches a RoCE node to a host. nicModel may be nil (no pipeline
// or cache modeling).
func NewNode(s *sim.Simulator, host *netsim.Host, nicModel *nic.NIC) *Node {
	n := &Node{sim: s, host: host, nic: nicModel}
	host.SetHandler(n)
	return n
}

// NIC returns the node's NIC model (may be nil).
func (n *Node) NIC() *nic.NIC { return n.nic }

// HandleFrame implements netsim.Handler.
func (n *Node) HandleFrame(f *netsim.Frame) {
	p, ok := f.Payload.(*packet)
	if !ok {
		return
	}
	e := n.qps[p.QP]
	if n.nic == nil {
		e.deliver(p)
		return
	}
	r := n.handleFree.Get()
	r.n, r.e, r.p = n, e, p
	n.nic.ProcessAction(p.QP, r)
}

// end is what either side of a QP pair keeps to exchange packets with the
// other.
type end struct {
	node *Node
	cfg  Config
	id   uint32 // the QP pair's ID, the ECMP hash input
	key  uint32 // this end's QP number
	peer uint32 // the other end's QP number, carried by every packet
	dst  netsim.NodeID
	// salt completes the fixed ECMP hash; spray replaces it with a random
	// one per packet (the requester in AR mode, where the switch sprays).
	salt  uint64
	spray bool
	pkts  *pktPool

	// recv and drop are bound once: QP.handle or Responder.handle, and
	// the frame's OnDrop.
	recv func(*packet)
	drop func(any)
}

// join gives e the next QP number on its node.
func (e *end) join(recv func(*packet)) {
	e.key, e.recv, e.drop = uint32(len(e.node.qps)), recv, e.release
	e.node.qps = append(e.node.qps, e)
}

// packet returns a packet of type t addressed to the peer, held by the
// caller.
func (e *end) packet(t pktType) *packet {
	p := e.pkts.Acquire()
	p.Type, p.QP = t, e.peer
	return p
}

func (e *end) release(p any) { e.pkts.Release(p.(*packet)) }

// deliver hands an arrived packet to its end and releases the fabric's
// hold.
func (e *end) deliver(p *packet) {
	e.recv(p)
	e.pkts.Release(p)
}

// keep holds p in t under its PSN unless t already holds that PSN, and
// reports whether it did.
func (e *end) keep(t *ring.Table[*packet], p *packet) bool {
	if t.Has(uint64(p.PSN)) {
		return false
	}
	t.Put(uint64(p.PSN), e.pkts.Share(p))
	return true
}

// send hands the caller's hold on p to the fabric, through the NIC
// pipeline when the node models one.
func (e *end) send(p *packet) {
	hash := uint64(e.id)<<20 | e.salt
	if e.spray {
		hash = e.node.sim.Rand().Uint64()
	}
	n, size := e.node, headerBytes+p.Size
	if n.nic == nil {
		e.emit(p, hash, size)
		return
	}
	r := n.sendFree.Get()
	r.e, r.p, r.hash, r.size = e, p, hash, size
	n.nic.ProcessAction(e.key, r)
}

func (e *end) emit(p *packet, hash uint64, size int) {
	f := e.node.host.NewFrame()
	f.Dst, f.FlowHash, f.Size, f.Payload, f.OnDrop = e.dst, hash, size, p, e.drop
	e.node.host.Send(f)
}

// sendReq is the pooled TX pipeline pass: emit one frame once the NIC has
// processed the packet.
type sendReq struct {
	e    *end
	hash uint64
	size int
	p    *packet
}

func (r *sendReq) RunAction() {
	e, p, hash, size := r.e, r.p, r.hash, r.size
	r.p = nil
	e.node.sendFree.Put(r)
	e.emit(p, hash, size)
}

// handleReq is the pooled RX pipeline pass: deliver one packet to its QP
// end once the NIC has processed it. The request is released before the
// handler runs — handling may send, and sends may need the pool.
type handleReq struct {
	n *Node
	e *end
	p *packet
}

func (r *handleReq) RunAction() {
	n, e, p := r.n, r.e, r.p
	r.e, r.p = nil, nil
	n.handleFree.Put(r)
	e.deliver(p)
}
