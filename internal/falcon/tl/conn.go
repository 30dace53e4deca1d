package tl

import (
	"errors"
	"time"

	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/ring"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// ErrBackpressured reports that the connection is Xoff'd: its resource
// usage exceeds the (dynamic-threshold) share it is allowed (§4.6). Work
// the ULP submitted through Conn.Submit is parked and resumed on the Xon
// edge.
var ErrBackpressured = errors.New("tl: connection backpressured (xoff)")

// ErrCIE reports a transaction completed-in-error by the target ULP (§4.4).
var ErrCIE = errors.New("tl: transaction completed in error (CIE)")

// ErrConnDead reports operations on (or pending in) a connection whose
// packet-delivery layer declared a terminal failure.
var ErrConnDead = errors.New("tl: connection failed")

// BackpressureMode selects the isolation policy of Figure 24.
type BackpressureMode int

const (
	// BackpressureNone disables per-connection thresholds: connections
	// compete for pools unchecked.
	BackpressureNone BackpressureMode = iota
	// BackpressureStatic uses a fixed α for every connection.
	BackpressureStatic
	// BackpressureDynamic scales α by the FAE's congestion-aware β_c.
	BackpressureDynamic
)

func (m BackpressureMode) String() string {
	switch m {
	case BackpressureStatic:
		return "static"
	case BackpressureDynamic:
		return "dynamic"
	}
	return "none"
}

// TargetVerdictKind is the target ULP's decision about a delivered request.
type TargetVerdictKind int

const (
	// TargetOK: request processed successfully.
	TargetOK TargetVerdictKind = iota
	// TargetRNR: receiver not ready; retry after RetryDelay.
	TargetRNR
	// TargetError: request failed; complete in error and continue (CIE).
	TargetError
	// TargetAsync (pulls only): the ULP will produce the response later
	// via CompletePull — e.g. an NVMe read waiting on the device. The
	// transaction still completes in RSN order at delivery.
	TargetAsync
)

// TargetVerdict is returned by TargetHandler methods.
type TargetVerdict struct {
	Kind       TargetVerdictKind
	RetryDelay time.Duration
}

// TargetHandler is the ULP-side interface invoked at the target NIC. On
// ordered connections, handlers run in RSN order. The packet is read-only
// and valid only for the duration of the call (it may be the wire packet
// itself, recycled afterwards); p.Data may be retained — payload slices
// are never pooled.
type TargetHandler interface {
	// HandlePush processes arriving push data (e.g. executes an RDMA
	// Write to host memory).
	HandlePush(rsn uint64, p *wire.Packet) TargetVerdict
	// HandlePull produces the response for a pull request (e.g. an RDMA
	// Read of p.PullLength bytes). data may be nil in simulation mode.
	HandlePull(rsn uint64, p *wire.Packet) (data []byte, length uint32, v TargetVerdict)
}

// Control is the downward interface to the PDL. *pdl.Conn satisfies it.
type Control interface {
	SendPacket(p *wire.Packet)
	SendExceptionNack(space wire.Space, psn uint32, rsn uint64, code wire.NackCode, retry time.Duration)
}

var _ Control = (*pdl.Conn)(nil)

// Config parameterizes a TL connection.
type Config struct {
	// Ordered selects IB Verbs ordering: in-order delivery to the target
	// ULP and in-order completions at the initiator. Unordered delivers
	// and completes as packets arrive (§4.4).
	Ordered bool
	// MTU bounds a single transaction's payload (§4.4: transactions are
	// at most one MTU; ULPs segment larger ops).
	MTU int
	// Backpressure selects the isolation policy.
	Backpressure BackpressureMode
	// StaticAlpha is the DT α for BackpressureStatic.
	StaticAlpha float64
}

// DefaultConfig returns an ordered connection with 4KB MTU and dynamic
// backpressure.
func DefaultConfig() Config {
	return Config{Ordered: true, MTU: 4096, Backpressure: BackpressureDynamic, StaticAlpha: 2}
}

type txnKind int

const (
	txnPush txnKind = iota
	txnPull
)

// txn is one initiator-side transaction (at most one MTU, so exactly one
// request packet and at most one response packet). Completed transactions
// recycle through the node's free list (Resources.allocTxn).
type txn struct {
	kind     txnKind
	rsn      uint64
	length   uint32 // push payload length / pull solicited length
	ulpOp    uint8
	addr     uint64
	data     []byte
	done     func(data []byte, err error)
	pktAcked bool
	finished bool // target outcome known (completion/pull-data/CIE)
	retrying bool // RNR received, retry scheduled: acks must not complete it
	released bool
	err      error
	respData []byte
	nextFree *txn
}

// Probe observes a TL connection's transaction-level activity. It is the
// TL's verification hook (internal/testkit registers invariant checkers
// through it): OnRequestServed fires at the target when a request reaches
// terminal processing (exactly once per RSN, in RSN order on ordered
// connections), and OnCompletion fires at the initiator when a completion
// is released to the ULP (exactly once per RSN). Costs one nil check when
// unset.
type Probe interface {
	OnRequestServed(c *Conn, rsn uint64)
	OnCompletion(c *Conn, rsn uint64, err error)
}

// Stats counts TL activity on one connection.
type Stats struct {
	Pushes         uint64
	Pulls          uint64
	CompletedOK    uint64
	CompletedError uint64
	RNRRetries     uint64
	Backpressured  uint64
	RequestsServed uint64
}

// Conn is one Falcon connection's transaction layer. Toward the ULP it
// issues Push and Pull transactions of at most MTU bytes, and it holds the
// ULP work it refused in a park queue until its Xon edge (see Submit).
type Conn struct {
	sim    *sim.Simulator
	cfg    Config
	id     uint32
	res    *Resources
	ctrl   Control
	target TargetHandler

	// key indexes this connection in res's per-connection tables.
	key uint32

	alpha float64 // α_c from the FAE (dynamic backpressure)

	// pool recycles the request/response packets this connection builds
	// (nil = heap packets; see wire.PacketPool).
	pool *wire.PacketPool

	// Initiator state.
	nextRSN    uint64
	txns       ring.Table[*txn]
	releaseRSN uint64 // next RSN to release to the ULP (ordered)
	wasXoff    bool
	// parked holds, in submit order, the ULP work the connection refused
	// and the work submitted behind it (see Submit).
	parked ring.Ring[func() bool]

	// Target state.
	expectedRSN uint64
	// reorderBuf holds the requests that arrived ahead of a gap, each a
	// shared hold on its wire packet, until drainTargetOrdered serves it.
	reorderBuf   ring.Table[*wire.Packet]
	completedRSN uint64

	// Deferred pull responses awaiting TxResp resources.
	pendingResponses ring.Ring[*wire.Packet]
	// sentRespBytes records TxResp byte reservations per RSN so acks
	// release the exact amount.
	sentRespBytes ring.Table[int]
	// reqReservations records TxReq byte reservations per RSN. Releases
	// are driven by packet ACKs, which can arrive after the transaction
	// itself has completed (the completion horizon can outrun
	// per-packet ACKs), so this table outlives the txns entry.
	reqReservations ring.Table[int]

	// completedApplied is the highest completion horizon already folded
	// into the txns table; Completed only walks [applied, new horizon)
	// instead of every live transaction (new transactions always get
	// RSNs at or above any applied horizon, so nothing below it can be
	// an unflagged push).
	completedApplied uint64

	// queued is set while the connection waits in res's waiters FIFO.
	queued bool

	// dead is non-nil once the PDL declared the connection failed.
	dead error
	// onDead, when set, is the ULP's death upcall (see OnDead).
	onDead func(error)

	// probe, when non-nil, observes serves and completions (verification).
	probe Probe

	// Free lists and scratch (steady-state allocation avoidance).
	rnrEvents    *rnrRetryEvent
	readyScratch []uint64

	Stats Stats
}

// NewConn creates a TL connection bound to shared resources and a PDL
// control. target may be nil for a pure-initiator endpoint.
func NewConn(s *sim.Simulator, id uint32, cfg Config, res *Resources, ctrl Control, target TargetHandler) *Conn {
	if cfg.MTU <= 0 {
		cfg.MTU = 4096
	}
	if cfg.StaticAlpha <= 0 {
		cfg.StaticAlpha = 2
	}
	c := &Conn{
		sim:    s,
		cfg:    cfg,
		id:     id,
		res:    res,
		ctrl:   ctrl,
		target: target,
		alpha:  cfg.StaticAlpha,
	}
	c.key = res.subscribeConn(c)
	return c
}

// SetPacketPool attaches a packet pool (nil keeps heap packets). Must be
// called before traffic flows; internal/core wires its cluster's pool.
func (c *Conn) SetPacketPool(p *wire.PacketPool) { c.pool = p }

// ID returns the connection ID.
func (c *Conn) ID() uint32 { return c.id }

// SetTarget installs the target-side ULP handler (it may be attached after
// construction, before traffic arrives).
func (c *Conn) SetTarget(h TargetHandler) { c.target = h }

// OnDead installs the connection's death upcall: Fail calls fn once, with
// the terminal error, after its teardown, so a ULP learns of the death
// even with no transaction of its own outstanding.
func (c *Conn) OnDead(fn func(err error)) { c.onDead = fn }

// SetProbe attaches a verification probe (nil detaches).
func (c *Conn) SetProbe(p Probe) { c.probe = p }

// OutstandingTxns reports the initiator-side transactions that have been
// issued but not yet completed (telemetry gauge).
func (c *Conn) OutstandingTxns() int { return c.txns.Len() }

// PendingResponses reports pull responses deferred on TxResp resource
// exhaustion (solicitation backlog; telemetry gauge).
func (c *Conn) PendingResponses() int { return c.pendingResponses.Len() }

// ReorderBacklog reports target-side requests buffered awaiting in-order
// delivery (telemetry gauge).
func (c *Conn) ReorderBacklog() int { return c.reorderBuf.Len() }

// Ordered reports whether the connection delivers and completes in RSN
// order.
func (c *Conn) Ordered() bool { return c.cfg.Ordered }

// Alpha returns the connection's current DT α_c (diagnostics).
func (c *Conn) Alpha() float64 { return c.effAlpha() }

// SetAlpha installs the FAE-computed α_c (BackpressureDynamic).
func (c *Conn) SetAlpha(a float64) {
	if a > 0 {
		c.alpha = a
	}
}

// MTU returns the largest transaction payload the connection accepts;
// ULPs segment their operations by it.
func (c *Conn) MTU() int { return c.cfg.MTU }

// Submit is how a ULP issues work under backpressure. work tries to issue
// and reports whether it is done: issued, or ended because the connection
// is dead. Submit runs work at once unless earlier work is parked, in which
// case work queues behind it; work that is not done is parked. The Xon edge
// resumes parked work from the head and stops at the first item refused
// again, and after the connection fails parked work runs once more, so that
// it sees Dead and ends. Binding work once per ULP descriptor keeps parking
// allocation-free.
func (c *Conn) Submit(work func() bool) {
	if c.parked.Len() > 0 || !work() {
		c.parked.Push(work)
	}
}

// Parked reports how many submitted items wait for the Xon edge.
func (c *Conn) Parked() int { return c.parked.Len() }

// resumeParked runs parked work in submit order, stopping at the first item
// refused again. An item stays at the head while it runs, so work submitted
// from inside it queues behind.
func (c *Conn) resumeParked() {
	for c.parked.Len() > 0 {
		if !c.parked.Peek()() {
			return
		}
		c.parked.Pop()
	}
}

// CompletedRSN is sampled by the PDL when building ACKs: the cumulative
// in-order completion horizon at this target (zero for unordered).
func (c *Conn) CompletedRSN() uint64 {
	if !c.cfg.Ordered {
		return 0
	}
	return c.completedRSN
}

// RxOccupancy is forwarded to the PDL's ACK builder.
func (c *Conn) RxOccupancy() float64 { return c.res.RxOccupancy() }

// ExpectedRSN returns the next request RSN the target will process in
// order (diagnostics/verification).
func (c *Conn) ExpectedRSN() uint64 { return c.expectedRSN }

// BufferedRSNs returns the RSNs held in the target reorder buffer, sorted
// (diagnostics/verification).
func (c *Conn) BufferedRSNs() []uint64 { return c.reorderBuf.Sorted() }

// PendingRSNs returns the initiator-side RSNs not yet released to the
// ULP, sorted (diagnostics/verification).
func (c *Conn) PendingRSNs() []uint64 { return c.txns.Sorted() }

// effAlpha returns the connection's DT α under the configured policy.
func (c *Conn) effAlpha() float64 {
	if c.cfg.Backpressure == BackpressureStatic {
		return c.cfg.StaticAlpha
	}
	return c.alpha
}

// xoffed applies the DT rule T_c = α_c·Free per pool, on contexts and
// buffer bytes (§4.6). A connection exceeding its share of any pool is
// backpressured.
func (c *Conn) xoffed() bool {
	if c.cfg.Backpressure == BackpressureNone {
		return false
	}
	return c.res.OverDTThreshold(c.key, c.effAlpha())
}

// needy reports whether onResourcesFreed would do something: a deferred
// response to drain, or an Xon edge to signal. Every refusal arms the edge,
// whether or not work was parked; the edge disarms it.
func (c *Conn) needy() bool {
	return (c.wasXoff || c.pendingResponses.Len() > 0) && c.dead == nil
}

// noteXoff records a refusal and arms the Xon edge. A refusal by a full
// pool (full) queues the connection behind the pool's other waiters; a DT
// refusal waits for the connection's own releases.
func (c *Conn) noteXoff(full bool) {
	c.Stats.Backpressured++
	c.wasXoff = true
	if full {
		c.res.enqueue(c)
	}
}

// Push initiates a push transaction of length bytes (≤ MTU). done fires at
// completion; its data argument is always nil for pushes. Returns the RSN.
func (c *Conn) Push(data []byte, length uint32, done func(data []byte, err error)) (uint64, error) {
	return c.PushOp(0, 0, data, length, done)
}

// PushOp is Push with ULP metadata: op identifies the ULP operation and
// addr the remote address it targets (carried opaquely by Falcon).
func (c *Conn) PushOp(op uint8, addr uint64, data []byte, length uint32, done func(data []byte, err error)) (uint64, error) {
	if c.dead != nil {
		return 0, c.dead
	}
	if int(length) > c.cfg.MTU {
		return 0, errors.New("tl: push exceeds MTU; ULP must segment")
	}
	if c.xoffed() {
		c.noteXoff(false)
		return 0, ErrBackpressured
	}
	// Reserve the request's TX resources and the completion's RX slot up
	// front (§4.5: responses must always be able to land).
	if err := c.res.Reserve(PoolTxReq, c.key, int(length)); err != nil {
		c.noteXoff(true)
		return 0, err
	}
	if err := c.res.Reserve(PoolRxResp, c.key, 0); err != nil {
		c.res.Release(PoolTxReq, c.key, int(length))
		c.noteXoff(true)
		return 0, err
	}
	rsn := c.nextRSN
	c.nextRSN++
	t := c.res.allocTxn()
	t.kind, t.rsn, t.length, t.ulpOp, t.addr, t.data, t.done = txnPush, rsn, length, op, addr, data, done
	c.txns.Put(rsn, t)
	c.Stats.Pushes++
	c.sendRequest(t)
	return rsn, nil
}

// Pull initiates a pull transaction soliciting length bytes (≤ MTU). done
// receives the pulled data.
func (c *Conn) Pull(length uint32, done func(data []byte, err error)) (uint64, error) {
	return c.PullOp(0, 0, length, done)
}

// PullOp is Pull with ULP metadata (op code and remote address).
func (c *Conn) PullOp(op uint8, addr uint64, length uint32, done func(data []byte, err error)) (uint64, error) {
	return c.PullOpData(op, addr, nil, length, done)
}

// PullOpData is PullOp with request payload bytes (e.g. atomic operands):
// the request carries reqData on the wire while soliciting respLen bytes
// back.
func (c *Conn) PullOpData(op uint8, addr uint64, reqData []byte, respLen uint32, done func(data []byte, err error)) (uint64, error) {
	if c.dead != nil {
		return 0, c.dead
	}
	length := respLen
	if int(length) > c.cfg.MTU {
		return 0, errors.New("tl: pull exceeds MTU; ULP must segment")
	}
	if c.xoffed() {
		c.noteXoff(false)
		return 0, ErrBackpressured
	}
	if err := c.res.Reserve(PoolTxReq, c.key, len(reqData)); err != nil {
		c.noteXoff(true)
		return 0, err
	}
	if err := c.res.Reserve(PoolRxResp, c.key, int(length)); err != nil {
		c.res.Release(PoolTxReq, c.key, len(reqData))
		c.noteXoff(true)
		return 0, err
	}
	rsn := c.nextRSN
	c.nextRSN++
	t := c.res.allocTxn()
	t.kind, t.rsn, t.length, t.ulpOp, t.addr, t.data, t.done = txnPull, rsn, length, op, addr, reqData, done
	c.txns.Put(rsn, t)
	c.Stats.Pulls++
	c.sendRequest(t)
	return rsn, nil
}

func (c *Conn) sendRequest(t *txn) {
	p := c.pool.Acquire()
	p.RSN, p.UlpOp, p.Addr = t.rsn, t.ulpOp, t.addr
	if c.cfg.Ordered {
		p.Flags |= wire.FlagOrdered
	}
	switch t.kind {
	case txnPush:
		p.Type = wire.TypePushData
		p.Length = t.length
		p.Data = t.data
		c.reqReservations.Put(t.rsn, int(t.length))
	case txnPull:
		p.Type = wire.TypePullRequest
		p.PullLength = t.length
		p.Data = t.data
		p.Length = uint32(len(t.data))
		c.reqReservations.Put(t.rsn, len(t.data))
	}
	c.ctrl.SendPacket(p)
}

// onResourcesFreed drains deferred responses and, on the Xon edge (the DT
// threshold no longer refuses a refused connection), resumes parked work.
// Release calls it only on a needy connection.
func (c *Conn) onResourcesFreed() {
	c.drainPendingResponses()
	if c.wasXoff && !c.xoffed() {
		c.wasXoff = false
		c.resumeParked()
	}
}
