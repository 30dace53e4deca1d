// Package swtransport models the software transport baselines the paper
// compares Falcon against: Pony Express (Snap's transport, Figure 1,
// Figure 20a, Figure 29) and the legacy kernel-TCP stack used by the MPI
// baseline (Figures 25–31).
//
// A software transport's defining constraints are CPU-side, not wire-side:
// every operation consumes per-core CPU time (bounding op rate at
// cores/PerOpCost), traverses the stack (fixed latency), and occasionally
// eats a scheduling hiccup (the long tail the paper's Figure 1 shows at
// 10x Falcon's). The wire itself is the same netsim fabric Falcon uses.
// Loss handling is omitted: the experiments that use these baselines run on
// unimpaired paths.
package swtransport

import (
	"time"

	"falcon/internal/netsim"
	"falcon/internal/sim"
)

// Profile characterizes one software stack.
type Profile struct {
	Name string
	// PerOpCost is the CPU time one operation costs on one core.
	PerOpCost time.Duration
	// PerByteCostNs is the additional CPU time per payload byte in
	// nanoseconds (memory copies, checksums): the term that caps a
	// software stack's bandwidth well below the wire.
	PerByteCostNs float64
	// Cores is the number of cores the transport may use.
	Cores int
	// StackLatency is the fixed one-way stack traversal latency.
	StackLatency time.Duration
	// JitterEvery and JitterDelay model scheduling hiccups: every N-th
	// op (per node) is delayed by JitterDelay. This produces the heavy
	// p99 tail software stacks exhibit.
	JitterEvery int
	JitterDelay time.Duration
	// MaxGbps caps per-connection throughput (memory copies, single
	// path).
	MaxGbps float64
	// MTU segments large transfers on the wire.
	MTU int
}

// PonyExpress returns the optimized-userspace-transport profile: ~24 Mops
// aggregate (Figure 1 shows Falcon at ~5x this) with a scheduling tail.
func PonyExpress() Profile {
	return Profile{
		Name:          "pony-express",
		PerOpCost:     330 * time.Nanosecond,
		PerByteCostNs: 0.5,
		Cores:         8,
		StackLatency:  3 * time.Microsecond,
		JitterEvery:   200,
		JitterDelay:   40 * time.Microsecond,
		MaxGbps:       100,
		MTU:           4096,
	}
}

// TCP returns the kernel-stack profile used by the legacy MPI baseline:
// much higher per-message cost (syscalls, interrupts) and deeper stack
// latency.
func TCP() Profile {
	return Profile{
		Name:          "tcp",
		PerOpCost:     2 * time.Microsecond,
		PerByteCostNs: 0.8,
		Cores:         8,
		StackLatency:  12 * time.Microsecond,
		JitterEvery:   100,
		JitterDelay:   80 * time.Microsecond,
		MaxGbps:       60,
		MTU:           4096,
	}
}

// msg is the wire payload. It doubles as the pooled receive-side CPU
// completion (sim.Action): the receiving node stamps itself into rnode,
// schedules the msg at its CPU-admission time, and RunAction delivers it.
// A msg always goes back to the free list of owner, the sending node that
// took it, whether it is consumed, or dropped by the fabric (dropMsg).
type msg struct {
	conn    uint32
	last    bool
	bytes   int // this fragment's payload
	total   int // whole message payload
	deliver func()

	owner, rnode *Node
}

func (m *msg) RunAction() {
	n := m.rnode
	if m.deliver != nil {
		n.sim.After(n.profile.StackLatency, m.deliver)
	}
	m.release()
}

// release returns m to its sender's free list.
func (m *msg) release() {
	m.deliver = nil
	m.rnode = nil
	m.owner.msgFree.Put(m)
}

// dropMsg is the frame OnDrop hook: a fragment the fabric discards goes
// back to its sender's list too.
func dropMsg(payload any) { payload.(*msg).release() }

// Node is one host's software transport instance.
type Node struct {
	sim     *sim.Simulator
	host    *netsim.Host
	profile Profile

	coreFree []sim.Time
	opCount  uint64

	// Free lists for the per-op objects (wire msgs, send continuations,
	// paced frame emissions, request-response calls); see the type
	// comments.
	msgFree  sim.FreeList[msg]
	xmitFree sim.FreeList[xmit]
	emitFree sim.FreeList[frameSend]
	callFree sim.FreeList[call]

	// Stats
	Ops uint64
}

// NewNode attaches a software transport to a fabric host.
func NewNode(s *sim.Simulator, host *netsim.Host, p Profile) *Node {
	if p.Cores <= 0 {
		p.Cores = 1
	}
	if p.MTU <= 0 {
		p.MTU = 4096
	}
	n := &Node{sim: s, host: host, profile: p, coreFree: make([]sim.Time, p.Cores)}
	host.SetHandler(n)
	return n
}

// HandleFrame implements netsim.Handler: receiver-side CPU processing.
// The fabric delivers a frame at most once, so a msg that arrives can be
// recycled as soon as it is consumed; one that is dropped comes back
// through dropMsg.
func (n *Node) HandleFrame(f *netsim.Frame) {
	m, ok := f.Payload.(*msg)
	if !ok {
		return
	}
	if !m.last {
		m.release()
		return // only the final fragment pays the op cost & completes
	}
	m.rnode = n
	n.sim.AtAction(n.admit(m.total), m)
}

// admit runs the transport's CPU admission for one op and returns when its
// processing completes: earliest-free core plus the per-op and per-byte
// cost, with periodic scheduling jitter.
func (n *Node) admit(bytes int) sim.Time {
	n.Ops++
	n.opCount++
	best := 0
	for i, f := range n.coreFree {
		if f < n.coreFree[best] {
			best = i
		}
	}
	start := n.sim.Now()
	if n.coreFree[best] > start {
		start = n.coreFree[best]
	}
	cost := n.profile.PerOpCost + time.Duration(float64(bytes)*n.profile.PerByteCostNs)
	if n.profile.JitterEvery > 0 && n.opCount%uint64(n.profile.JitterEvery) == 0 {
		cost += n.profile.JitterDelay
	}
	done := start.Add(cost)
	n.coreFree[best] = done
	return done
}

// cpu schedules fn after CPU admission (non-pooled callers).
func (n *Node) cpu(bytes int, fn func()) {
	n.sim.At(n.admit(bytes), fn)
}

// CPUBacklog returns how far the busiest core is scheduled into the
// future, a load signal for benchmarks.
func (n *Node) CPUBacklog() time.Duration {
	max := sim.Time(0)
	for _, f := range n.coreFree {
		if f > max {
			max = f
		}
	}
	now := n.sim.Now()
	if max <= now {
		return 0
	}
	return max.Sub(now)
}

// Conn is a software-transport connection.
type Conn struct {
	node *Node
	peer *Node
	id   uint32

	nextSend sim.Time
}

// Connect creates a connection between two software-transport nodes.
func Connect(a, b *Node, id uint32) *Conn {
	return &Conn{node: a, peer: b, id: id}
}

// xmit is the pooled sender-side CPU completion of a Send: transmit once
// the CPU has processed the op.
type xmit struct {
	c    *Conn
	n    int
	done func()
}

func (x *xmit) RunAction() {
	c, n, done := x.c, x.n, x.done
	x.c, x.done = nil, nil
	c.node.xmitFree.Put(x)
	c.transmit(n, done)
}

// Send transfers n bytes one way; done fires when the receiver's stack has
// delivered the message to the application.
func (c *Conn) Send(n int, done func()) {
	x := c.node.xmitFree.Get()
	x.c, x.n, x.done = c, n, done
	c.node.sim.AtAction(c.node.admit(n), x)
}

// Call performs a request-response op: n bytes out, respBytes back; done
// fires when the response lands at the caller.
func (c *Conn) Call(n, respBytes int, done func()) {
	cl := c.node.callFree.Get()
	if cl.respond == nil {
		cl.respond = cl.admit
	}
	cl.c, cl.resp, cl.done = c, respBytes, done
	c.Send(n, cl.respond)
}

// call is one pooled Call: respond, bound once per call object, runs at
// the peer when the request lands and admits the response on the peer's
// CPU; the call is then its own sim.Action and transmits the response.
// Each response leaves on a connection of its own, with fresh pacing
// state, as if a new reverse Conn were built per call. A call always goes
// back to the free list of the node that made it.
type call struct {
	c       *Conn
	resp    int
	done    func()
	respond func() // cl.admit
}

func (cl *call) admit() {
	peer := cl.c.peer
	peer.sim.AtAction(peer.admit(cl.resp), cl)
}

func (cl *call) RunAction() {
	c, resp, done := cl.c, cl.resp, cl.done
	cl.c, cl.done = nil, nil
	c.node.callFree.Put(cl)
	reverse := Conn{node: c.peer, peer: c.node, id: c.id}
	reverse.transmit(resp, done)
}

// frameSend is the pooled paced emission of one frame onto the wire.
type frameSend struct {
	node  *Node
	frame *netsim.Frame
}

func (fs *frameSend) RunAction() {
	n, f := fs.node, fs.frame
	fs.frame = nil
	n.emitFree.Put(fs)
	n.host.Send(f)
}

// transmit segments and paces a message onto the wire.
func (c *Conn) transmit(n int, done func()) {
	p := c.node.profile
	now := c.node.sim.Now()
	if c.nextSend < now {
		c.nextSend = now
	}
	remaining := n
	for {
		seg := remaining
		if seg > p.MTU {
			seg = p.MTU
		}
		remaining -= seg
		last := remaining <= 0
		m := c.node.msgFree.Get()
		m.conn, m.last, m.bytes, m.total, m.deliver = c.id, last, seg, n, done
		m.owner = c.node
		frame := c.node.host.NewFrame()
		frame.Dst = c.peer.host.ID
		frame.FlowHash = uint64(c.id) // single path
		frame.Size = seg + 66         // TCP/IP + Ethernet headers
		frame.Payload = m
		frame.OnDrop = dropMsg
		// Pace at the stack's throughput cap.
		gap := time.Duration(float64(seg+66) * 8 / p.MaxGbps)
		at := c.nextSend
		c.nextSend = c.nextSend.Add(gap)
		fs := c.node.emitFree.Get()
		fs.node, fs.frame = c.node, frame
		c.node.sim.AtAction(at.Add(p.StackLatency), fs)
		if last {
			break
		}
	}
}
