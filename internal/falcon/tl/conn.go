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
type BackpressureMode uint8

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

// Completer receives a transaction's outcome: for a pull the bytes the
// response carried, and the transaction's error. A ULP that tracks many
// transactions implements it on the per-transaction state it already
// keeps, so issuing one binds no closure.
type Completer interface {
	Complete(data []byte, err error)
}

// CompleteFunc adapts a function to Completer.
type CompleteFunc func(data []byte, err error)

// Complete calls fn.
func (fn CompleteFunc) Complete(data []byte, err error) { fn(data, err) }

// completeFunc wraps fn, keeping a nil fn a nil Completer.
func completeFunc(fn func(data []byte, err error)) Completer {
	if fn == nil {
		return nil
	}
	return CompleteFunc(fn)
}

// Work is ULP work submitted under backpressure (see Conn.Submit): Issue
// tries to issue it and reports whether it is done.
type Work interface {
	Issue() bool
}

// WorkFunc adapts a function to Work.
type WorkFunc func() bool

// Issue calls fn.
func (fn WorkFunc) Issue() bool { return fn() }

// MTU bounds a single transaction's payload (§4.4: transactions are at
// most one MTU; ULPs segment larger ops by it).
const MTU = 4096

// Config parameterizes a TL connection. The two one-byte fields come last
// so that a Conn, which keeps its Config, packs them into one word.
type Config struct {
	// StaticAlpha is the DT α for BackpressureStatic.
	StaticAlpha float64
	// Backpressure selects the isolation policy.
	Backpressure BackpressureMode
	// Ordered selects IB Verbs ordering: in-order delivery to the target
	// ULP and in-order completions at the initiator. Unordered delivers
	// and completes as packets arrive (§4.4).
	Ordered bool
}

// DefaultConfig returns an ordered connection with dynamic backpressure.
func DefaultConfig() Config {
	return Config{Ordered: true, Backpressure: BackpressureDynamic, StaticAlpha: 2}
}

type txnKind uint8

const (
	txnPush txnKind = iota
	txnPull
)

// txn is one initiator-side transaction (at most one MTU, so exactly one
// request packet and at most one response packet). Completed transactions
// recycle through the cluster's free list (Resources.txns).
type txn struct {
	rsn      uint64
	addr     uint64
	data     []byte
	done     Completer
	err      error
	respData []byte
	length   uint32 // push payload length / pull solicited length
	kind     txnKind
	ulpOp    uint8
	finished bool // target outcome known (completion/pull-data/CIE)
	retrying bool // RNR received, retry scheduled: acks must not complete it
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
	res    *Resources
	ctrl   Control
	target TargetHandler

	alpha float64 // α_c from the FAE (dynamic backpressure)

	// pool recycles the request/response packets this connection builds
	// (nil = heap packets; see wire.PacketPool).
	pool *wire.PacketPool

	// held is what the connection holds in each of res's pools, the DT
	// rule's per-connection input (xoffed). A holding is bounded by its
	// pool, which NewResources keeps within an int32.
	held [numPools]struct{ ctx, bytes int32 }

	// Initiator state.
	nextRSN    uint64
	txns       ring.Table[*txn]
	releaseRSN uint64 // next RSN to release to the ULP (ordered)
	id         uint32 // here, beside the flags, to share their word
	wasXoff    bool
	// queued is set while the connection waits in res's waiters FIFO.
	queued bool
	// parked holds, in submit order, the ULP work the connection refused
	// and the work submitted behind it (see Submit).
	parked ring.Ring[Work]

	// Target state.
	expectedRSN uint64
	// reorderBuf holds the requests that arrived ahead of a gap, each a
	// shared hold on its wire packet, until drainTargetOrdered serves it.
	reorderBuf ring.Table[*wire.Packet]

	// Deferred pull responses awaiting TxResp resources.
	pendingResponses ring.Ring[*wire.Packet]
	// sentRespBytes records TxResp byte reservations per RSN so acks
	// release the exact amount. A reservation is at most one MTU, so
	// this table and reqReservations hold int32s.
	sentRespBytes ring.Table[int32]
	// reqReservations records TxReq byte reservations per RSN. Releases
	// are driven by packet ACKs, which can arrive after the transaction
	// itself has completed (the completion horizon can outrun
	// per-packet ACKs), so this table outlives the txns entry.
	reqReservations ring.Table[int32]

	// completedApplied is the highest completion horizon already folded
	// into the txns table; Completed only walks [applied, new horizon)
	// instead of every live transaction (new transactions always get
	// RSNs at or above any applied horizon, so nothing below it can be
	// an unflagged push).
	completedApplied uint64

	// dead is non-nil once the PDL declared the connection failed.
	dead error
	// onDead, when set, is the ULP's death upcall (see OnDead).
	onDead func(error)

	// probe, when non-nil, observes serves and completions (verification).
	probe Probe

	// rnrEvents recycles the connection's RNR-retry events.
	rnrEvents sim.FreeList[rnrRetryEvent]

	Stats Stats
}

// NewConn creates a TL connection bound to shared resources and a PDL
// control. target may be nil for a pure-initiator endpoint.
func NewConn(s *sim.Simulator, id uint32, cfg Config, res *Resources, ctrl Control, target TargetHandler) *Conn {
	return &Conn{
		sim:    s,
		cfg:    cfg,
		id:     id,
		res:    res,
		ctrl:   ctrl,
		target: target,
		alpha:  cfg.StaticAlpha,
	}
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

// Submit is how a ULP issues work under backpressure. work tries to issue
// and reports whether it is done: issued, or ended because the connection
// is dead. Submit runs work at once unless earlier work is parked, in which
// case work queues behind it; work that is not done is parked. The Xon edge
// resumes parked work from the head and stops at the first item refused
// again, and after the connection fails parked work runs once more, so that
// it sees Dead and ends. Work implemented by a ULP descriptor keeps parking
// allocation-free.
func (c *Conn) Submit(work Work) {
	if c.parked.Len() > 0 || !work.Issue() {
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
		if !c.parked.Peek().Issue() {
			return
		}
		c.parked.Pop()
	}
}

// CompletedRSN is the cumulative in-order completion horizon at this
// target, which is the next request RSN it will serve: the PDL samples it
// into every ACK. Only an ordered target advances it, so it reads zero on
// an unordered connection.
func (c *Conn) CompletedRSN() uint64 { return c.expectedRSN }

// RxOccupancy is forwarded to the PDL's ACK builder.
func (c *Conn) RxOccupancy() float64 { return c.res.RxOccupancy() }

// BufferedRSNs returns the RSNs held in the target reorder buffer, sorted
// (diagnostics/verification).
func (c *Conn) BufferedRSNs() []uint64 { return c.reorderBuf.Sorted() }

// PendingRSNs returns the initiator-side RSNs not yet released to the
// ULP, sorted (diagnostics/verification).
func (c *Conn) PendingRSNs() []uint64 { return c.txns.Sorted() }

// RetryEvents reports how many RNR-retry events the connection has built
// and how many are on its free list: equal once no retry is pending.
func (c *Conn) RetryEvents() (built, free int) {
	return c.rnrEvents.Built(), c.rnrEvents.Free()
}

// effAlpha returns the connection's DT α under the configured policy.
func (c *Conn) effAlpha() float64 {
	if c.cfg.Backpressure == BackpressureStatic {
		return c.cfg.StaticAlpha
	}
	return c.alpha
}

// xoffed applies the DT rule T_c = α_c·Free per pool (§4.6): the
// connection is backpressured if in ANY pool its holdings exceed α_c times
// that pool's free resources, in contexts or bytes. Per-pool evaluation
// matters: one exhausted pool must not be masked by slack in the others.
func (c *Conn) xoffed() bool {
	if c.cfg.Backpressure == BackpressureNone {
		return false
	}
	alpha := c.effAlpha()
	for k, h := range c.held {
		p := &c.res.pools[k]
		if float64(h.ctx) > alpha*float64(p.cfg.Contexts-p.usedContexts) ||
			float64(h.bytes) > alpha*float64(p.cfg.Bytes-p.usedBytes) {
			return true
		}
	}
	return false
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
	return c.PushOp(0, 0, data, length, completeFunc(done))
}

// PushOp is Push with ULP metadata: op identifies the ULP operation and
// addr the remote address it targets (carried opaquely by Falcon). done
// may be nil.
func (c *Conn) PushOp(op uint8, addr uint64, data []byte, length uint32, done Completer) (uint64, error) {
	return c.initiate(txnPush, op, addr, data, length, done)
}

// Pull initiates a pull transaction soliciting length bytes (≤ MTU). done
// receives the pulled data.
func (c *Conn) Pull(length uint32, done func(data []byte, err error)) (uint64, error) {
	return c.PullOpData(0, 0, nil, length, completeFunc(done))
}

// PullOpData is Pull with ULP metadata (op code and remote address) and
// request payload bytes (e.g. atomic operands): the request carries reqData
// on the wire while soliciting respLen bytes back, and done is a Completer
// (nil for none).
func (c *Conn) PullOpData(op uint8, addr uint64, reqData []byte, respLen uint32, done Completer) (uint64, error) {
	return c.initiate(txnPull, op, addr, reqData, respLen, done)
}

// errOverMTU refuses a transaction longer than the MTU, by kind.
var errOverMTU = [...]error{
	txnPush: errors.New("tl: push exceeds MTU; ULP must segment"),
	txnPull: errors.New("tl: pull exceeds MTU; ULP must segment"),
}

// initiate is the one admission path behind Push and Pull: it refuses the
// transaction on a dead connection, past the MTU or under Xoff, reserves
// its resources, assigns its RSN and sends its request. length is the
// pushed payload or the solicited pull response; data is the request's
// wire payload.
func (c *Conn) initiate(kind txnKind, op uint8, addr uint64, data []byte, length uint32, done Completer) (uint64, error) {
	if c.dead != nil {
		return 0, c.dead
	}
	if length > MTU {
		return 0, errOverMTU[kind]
	}
	if c.xoffed() {
		c.noteXoff(false)
		return 0, ErrBackpressured
	}
	// Reserve the request's TX resources and the response's RX slot up
	// front (§4.5: responses must always be able to land). A push sends
	// length bytes and solicits an empty completion; a pull sends its
	// operands and solicits length bytes.
	txBytes, rxBytes := int(length), 0
	if kind == txnPull {
		txBytes, rxBytes = len(data), int(length)
	}
	if err := c.reserve(PoolTxReq, txBytes); err != nil {
		c.noteXoff(true)
		return 0, err
	}
	if err := c.reserve(PoolRxResp, rxBytes); err != nil {
		c.unreserve(PoolTxReq, txBytes)
		c.noteXoff(true)
		return 0, err
	}
	rsn := c.nextRSN
	c.nextRSN++
	t := c.res.txns.Get()
	t.kind, t.rsn, t.length, t.ulpOp, t.addr, t.data, t.done = kind, rsn, length, op, addr, data, done
	c.txns.Put(rsn, t)
	if kind == txnPush {
		c.Stats.Pushes++
	} else {
		c.Stats.Pulls++
	}
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
		c.reqReservations.Put(t.rsn, int32(t.length))
	case txnPull:
		p.Type = wire.TypePullRequest
		p.PullLength = t.length
		p.Data = t.data
		p.Length = uint32(len(t.data))
		c.reqReservations.Put(t.rsn, int32(len(t.data)))
	}
	c.ctrl.SendPacket(p)
}

// onResourcesFreed drains deferred responses and, on the Xon edge (the DT
// threshold no longer refuses a refused connection), resumes parked work.
// unreserve calls it only on a needy connection.
func (c *Conn) onResourcesFreed() {
	c.drainPendingResponses()
	if c.wasXoff && !c.xoffed() {
		c.wasXoff = false
		c.resumeParked()
	}
}
