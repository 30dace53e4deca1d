// Package rdma is the RDMA ULP mapping layer of Figure 2: it exposes an IB
// Verbs-flavoured API (RC queue pairs with WRITE, SEND/RECV, READ and
// ATOMIC operations) and maps each operation onto Falcon transactions per
// Table 2 — WRITE and SEND become Push transactions, READ and ATOMICs
// become Pulls. Operations larger than one MTU are segmented into multiple
// transactions of the connection's MTU (§4.4 "MTU Granularity"); ordered
// Falcon connections provide the IB Verbs ordering the completions rely on.
// Work requests the transaction layer refuses wait in its park queue
// (tl.Conn.Submit) and resume on the connection's Xon edge, so the QP keeps
// no queue of its own.
package rdma

import (
	"encoding/binary"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
)

// ULP op codes carried in wire.Packet.UlpOp.
const (
	opWrite uint8 = iota + 1
	opSend
	opRead
	opCompSwap
	opFetchAdd
)

// Completion is one work completion.
type Completion struct {
	// WRID is the caller-supplied work request ID.
	WRID uint64
	// Err is nil on success. A remote access outside the registered region
	// is completed in error by the target (CIE, §4.4 "Enhanced Error
	// Notifications") and surfaces here as tl.ErrCIE.
	Err error
	// Data holds READ results and prior values of ATOMICs (when the
	// target registered backing bytes).
	Data []byte
}

// rnrRetryDelay is advertised to senders when a SEND finds no posted
// receive.
const rnrRetryDelay = 50 * time.Microsecond

// Config parameterizes a QP.
type Config struct {
	// WeaklyOrdered selects the iWARP model (§4.4): run over an
	// *unordered* Falcon connection (out-of-order data placement) while
	// the QP releases completions in work-request order. The underlying
	// tl.Config should have Ordered=false; the QP provides the
	// completion ordering itself.
	WeaklyOrdered bool
}

// QP is a Reliable Connected queue pair bound to one Falcon endpoint.
type QP struct {
	ep  *core.Endpoint
	cfg Config

	// Registered memory region: remote WRITE/READ/ATOMIC target. mem may
	// be nil for size-only simulations; bounds are checked against
	// memLen either way.
	mem    []byte
	memLen uint64

	// Posted receives for SEND messages.
	recvQ []*recvBuffer
	// cur is the receive consumed by the in-progress multi-segment SEND.
	cur *recvBuffer

	completions []Completion
	onComplete  func(Completion)

	// Weakly-ordered completion sequencing: ops are released to the
	// application in post order even when they finish out of order.
	nextSeq    uint64
	releaseSeq uint64
	held       map[uint64]heldCompletion

	// pushFree recycles per-op Push state (WRITE/SEND): each op needs a
	// segment-completion callback, and allocating that closure per op is
	// the largest steady-state allocation in the op-rate figures. The
	// callback is bound once per pooled object.
	pushFree []*pushOp
	// pullFree is the same pool for READ/ATOMIC state (pullOp).
	pullFree []*pullOp

	// Stats
	RNRs uint64
}

// opPoolCap bounds each per-QP free list; beyond it ops are dropped to the
// GC (a QP rarely has more than a send queue's worth outstanding).
const opPoolCap = 64

// pushOp is the in-flight state of one WRITE or SEND work request: the
// identity of the op, its segmentation cursor, and the segment-completion
// and issue callbacks pre-bound to this object, so neither the issue loop
// nor parking the op in the TL allocates.
type pushOp struct {
	qp   *QP
	op   uint8
	wrid uint64
	seq  uint64
	addr uint64
	data []byte
	size int

	nseg      int
	remaining int
	firstErr  error
	done      func(Completion)

	// Issue cursor: the next segment index/offset to issue.
	nextIdx, nextOff int

	segDoneFn func([]byte, error)
	issueFn   func() bool
}

func (qp *QP) getPushOp() *pushOp {
	if n := len(qp.pushFree); n > 0 {
		o := qp.pushFree[n-1]
		qp.pushFree = qp.pushFree[:n-1]
		return o
	}
	o := &pushOp{qp: qp}
	o.segDoneFn = o.segDone
	o.issueFn = o.issue
	return o
}

// release returns the op to the pool. Callers must copy out any state they
// still need first: a completion callback may post a new op and reuse this
// object immediately.
func (o *pushOp) release() {
	o.data = nil
	o.done = nil
	o.firstErr = nil
	qp := o.qp
	if len(qp.pushFree) < opPoolCap {
		qp.pushFree = append(qp.pushFree, o)
	}
}

func (o *pushOp) segDone(_ []byte, err error) {
	if err != nil && o.firstErr == nil {
		o.firstErr = err
	}
	o.remaining--
	if o.remaining == 0 {
		qp, seq, done := o.qp, o.seq, o.done
		c := Completion{WRID: o.wrid, Err: o.firstErr}
		o.release()
		qp.deliver(seq, c, done)
	}
}

// issue issues the op's segments from its cursor on, as tl.Conn.Submit
// work: it returns false when the TL refused one, with the cursor at that
// segment, and true once every segment is issued, or failed because the
// connection is dead. It reads the op's fields into locals up front: the
// final segment's completion can release (and a nested post can reuse) the
// object while the loop epilogue still runs.
func (o *pushOp) issue() bool {
	qp, op, data, size, addr, nseg := o.qp, o.op, o.data, o.size, o.addr, o.nseg
	i, off := o.nextIdx, o.nextOff
	mtu := qp.ep.TL().MTU()
	segDone := o.segDoneFn
	for ; i < nseg; i++ {
		seg := size - off
		if seg > mtu {
			seg = mtu
		}
		if seg < 0 {
			seg = 0
		}
		var chunk []byte
		if data != nil {
			chunk = data[off : off+seg]
		}
		var a uint64
		if op == opSend {
			a = sendMeta(size, off)
		} else {
			a = addr + uint64(off)
		}
		if _, err := qp.ep.TL().PushOp(op, a, chunk, uint32(seg), segDone); err != nil {
			if qp.ep.TL().Dead() != nil {
				failSegments(nseg-i, err, segDone)
				return true
			}
			o.nextIdx, o.nextOff = i, off
			return false
		}
		off += seg
	}
	return true
}

// postPush starts a pooled WRITE/SEND work request.
func (qp *QP) postPush(op uint8, wrid, addr uint64, data []byte, size int, done func(Completion)) {
	o := qp.getPushOp()
	o.op, o.wrid, o.addr, o.data, o.size, o.done = op, wrid, addr, data, size, done
	o.seq = qp.allocSeq()
	o.nseg = qp.segmentCount(size)
	o.remaining = o.nseg
	o.nextIdx, o.nextOff = 0, 0
	qp.ep.TL().Submit(o.issueFn)
}

// pullOp is the in-flight state of one READ or ATOMIC work request, the
// Pull-side twin of pushOp: a pooled descriptor with a segmentation cursor
// and callbacks bound once (issueFn among them), so neither an attempt
// refused by TL backpressure nor its resumption allocates. The TL's completion callback
// does not say which transaction it is for and unordered connections
// complete segments out of order, so where pushOp shares one callback,
// every segment here has its own slot: a pre-bound callback that parks the
// segment's bytes until the op completes.
type pullOp struct {
	qp   *QP
	op   uint8
	wrid uint64
	seq  uint64
	addr uint64
	size int

	nseg      int
	remaining int
	firstErr  error
	haveData  bool // every segment so far returned bytes
	done      func(Completion)

	// Issue cursor: the next segment index/offset to issue.
	nextIdx, nextOff int

	// slots[:nseg] are this op's segments; the slice only grows, at post
	// time, when no callback into the old slots is outstanding.
	slots []pullSlot

	issueFn func() bool
}

// pullSlot is one segment's completion slot.
type pullSlot struct {
	o    *pullOp
	data []byte
	fn   func([]byte, error) // s.segDone, bound once
}

// getPullOp takes a descriptor with at least nseg slots from the pool and
// arms it for a new work request.
func (qp *QP) getPullOp(op uint8, wrid, addr uint64, size, nseg int, done func(Completion)) *pullOp {
	var o *pullOp
	if n := len(qp.pullFree); n > 0 {
		o = qp.pullFree[n-1]
		qp.pullFree = qp.pullFree[:n-1]
	} else {
		o = &pullOp{qp: qp}
		o.issueFn = o.issue
	}
	if nseg > len(o.slots) {
		o.slots = make([]pullSlot, nseg)
		for i := range o.slots {
			s := &o.slots[i]
			s.o = o
			s.fn = s.segDone
		}
	}
	o.op, o.wrid, o.addr, o.size, o.done = op, wrid, addr, size, done
	o.seq = qp.allocSeq()
	o.nseg, o.remaining, o.haveData = nseg, nseg, true
	o.nextIdx, o.nextOff = 0, 0
	return o
}

// release returns the op to the pool, under pushOp.release's rule: callers
// copy out what they still need first, because a completion callback may
// post a new op and reuse this object immediately.
func (o *pullOp) release() {
	o.done = nil
	o.firstErr = nil
	qp := o.qp
	if len(qp.pullFree) < opPoolCap {
		qp.pullFree = append(qp.pullFree, o)
	}
}

func (s *pullSlot) segDone(data []byte, err error) {
	o := s.o
	if err != nil && o.firstErr == nil {
		o.firstErr = err
	}
	if data == nil {
		o.haveData = false
	}
	s.data = data
	o.remaining--
	if o.remaining == 0 {
		o.complete()
	}
}

// complete assembles the work completion — a READ's segments concatenated
// in order when every one carried bytes, an ATOMIC's prior value as it
// arrived — and delivers it after the descriptor is back in the pool.
func (o *pullOp) complete() {
	slots := o.slots[:o.nseg]
	c := Completion{WRID: o.wrid, Err: o.firstErr}
	switch {
	case o.op != opRead:
		c.Data = slots[0].data
	case o.haveData && o.firstErr == nil:
		total := 0
		for i := range slots {
			total += len(slots[i].data)
		}
		if total > 0 {
			c.Data = make([]byte, 0, total)
		}
		for i := range slots {
			c.Data = append(c.Data, slots[i].data...)
		}
	}
	for i := range slots {
		slots[i].data = nil
	}
	qp, seq, done := o.qp, o.seq, o.done
	o.release()
	qp.deliver(seq, c, done)
}

// issue issues READ segments from the op's cursor on, under pushOp.issue's
// contract and for the same reason reading the op's fields into locals up
// front.
func (o *pullOp) issue() bool {
	qp, addr, size, slots := o.qp, o.addr, o.size, o.slots[:o.nseg]
	i, off := o.nextIdx, o.nextOff
	mtu := qp.ep.TL().MTU()
	for ; i < len(slots); i++ {
		seg := size - off
		if seg > mtu {
			seg = mtu
		}
		if seg < 0 {
			seg = 0
		}
		if _, err := qp.ep.TL().PullOp(opRead, addr+uint64(off), uint32(seg), slots[i].fn); err != nil {
			if qp.ep.TL().Dead() != nil {
				for ; i < len(slots); i++ {
					slots[i].fn(nil, err)
				}
				return true
			}
			o.nextIdx, o.nextOff = i, off
			return false
		}
		off += seg
	}
	return true
}

type heldCompletion struct {
	c    Completion
	done func(Completion)
}

type recvBuffer struct {
	buf  []byte
	size int
	got  int
	done func(n int, err error)
}

// NewQP wraps a Falcon endpoint as an RC queue pair and installs the RDMA
// target handler on it.
func NewQP(ep *core.Endpoint, cfg Config) *QP {
	qp := &QP{ep: ep, cfg: cfg}
	if cfg.WeaklyOrdered {
		qp.held = make(map[uint64]heldCompletion)
	}
	ep.SetTarget((*target)(qp))
	return qp
}

// Endpoint returns the underlying Falcon endpoint (stats access).
func (qp *QP) Endpoint() *core.Endpoint { return qp.ep }

// Target returns the QP's TL target handler — the same value NewQP
// installed on the endpoint. Fault-injection harnesses use it to
// interpose a wrapper (e.g. a receiver-not-ready stall that answers RNR
// while stalled and delegates here otherwise) via Endpoint.SetTarget.
func (qp *QP) Target() tl.TargetHandler { return (*target)(qp) }

// RegisterMemory registers buf as the QP's remotely accessible region.
func (qp *QP) RegisterMemory(buf []byte) {
	qp.mem = buf
	qp.memLen = uint64(len(buf))
}

// RegisterMemoryLen registers an n-byte region without backing bytes
// (size-only simulation: bounds checked, no data movement).
func (qp *QP) RegisterMemoryLen(n uint64) {
	qp.mem = nil
	qp.memLen = n
}

// OnCompletion installs a completion callback; when unset, completions
// accumulate for PollCQ.
func (qp *QP) OnCompletion(fn func(Completion)) { qp.onComplete = fn }

// PollCQ drains accumulated completions.
func (qp *QP) PollCQ() []Completion {
	out := qp.completions
	qp.completions = nil
	return out
}

// allocSeq assigns the op's position in the completion order.
func (qp *QP) allocSeq() uint64 {
	s := qp.nextSeq
	qp.nextSeq++
	return s
}

// deliver routes a completion to the application. In weakly-ordered mode
// completions are buffered and released in post order.
func (qp *QP) deliver(seq uint64, c Completion, done func(Completion)) {
	if !qp.cfg.WeaklyOrdered {
		qp.emit(c, done)
		return
	}
	qp.held[seq] = heldCompletion{c: c, done: done}
	for {
		h, ok := qp.held[qp.releaseSeq]
		if !ok {
			return
		}
		delete(qp.held, qp.releaseSeq)
		qp.releaseSeq++
		qp.emit(h.c, h.done)
	}
}

func (qp *QP) emit(c Completion, done func(Completion)) {
	switch {
	case done != nil:
		done(c)
	case qp.onComplete != nil:
		qp.onComplete(c)
	default:
		qp.completions = append(qp.completions, c)
	}
}

// segmentCount is the number of MTU-sized transactions an op of size bytes
// maps to (at least one: a zero-byte op is still a transaction).
func (qp *QP) segmentCount(size int) int {
	if size <= 0 {
		return 1
	}
	mtu := qp.ep.TL().MTU()
	return (size + mtu - 1) / mtu
}

// failSegments completes n never-issued segments of an op in error. The
// issue loops call it when the connection died mid-op (crash teardown,
// RTO-budget exhaustion): the conn can never accept the segment, so the op
// must surface the failure instead of waiting.
func failSegments(n int, err error, segDone func([]byte, error)) {
	for j := 0; j < n; j++ {
		segDone(nil, err)
	}
}

// Write posts an RDMA WRITE of data (or size bytes when data is nil) to
// remote address addr: one Push per MTU segment, one completion for the
// op. Segments refused by transaction-layer backpressure wait in the TL's
// park queue and are re-issued on the connection's Xon edge, so Write never
// fails mid-op: failures arrive in the completion, and the returned error
// is always nil.
func (qp *QP) Write(wrid uint64, addr uint64, data []byte, size int, done func(Completion)) error {
	if data != nil {
		size = len(data)
	}
	qp.postPush(opWrite, wrid, addr, data, size, done)
	return nil
}

// Send posts an RDMA SEND of data/size bytes; the peer must have posted a
// receive for the message. Multi-segment sends encode (total, offset) so
// the target consumes exactly one receive per message. Like Write it queues
// behind backpressure, and the returned error is always nil.
func (qp *QP) Send(wrid uint64, data []byte, size int, done func(Completion)) error {
	if data != nil {
		size = len(data)
	}
	qp.postPush(opSend, wrid, 0, data, size, done)
	return nil
}

// sendMeta packs a SEND's total message size and segment offset into the
// opaque Addr field (the ULP header a real stack would carry in-payload).
func sendMeta(total, off int) uint64 { return uint64(total)<<32 | uint64(uint32(off)) }

func splitSendMeta(meta uint64) (total, off int) {
	return int(meta >> 32), int(uint32(meta))
}

// PostRecv posts a receive for one incoming SEND message of up to size
// bytes. done fires when the full message has landed.
func (qp *QP) PostRecv(buf []byte, size int, done func(n int, err error)) {
	if buf != nil {
		size = len(buf)
	}
	qp.recvQ = append(qp.recvQ, &recvBuffer{buf: buf, size: size, done: done})
}

// Read posts an RDMA READ of size bytes from remote addr: one Pull per MTU
// segment; the completion carries the concatenated data when the peer has
// backing memory. Like Write, it queues behind backpressure, so Read never
// fails mid-op and the returned error is always nil.
func (qp *QP) Read(wrid uint64, addr uint64, size int, done func(Completion)) error {
	qp.ep.TL().Submit(qp.getPullOp(opRead, wrid, addr, size, qp.segmentCount(size), done).issueFn)
	return nil
}

// CompareSwap posts an 8-byte atomic compare-and-swap on remote addr. The
// completion's Data holds the prior value when the peer has backing bytes.
func (qp *QP) CompareSwap(wrid uint64, addr, compare, swap uint64, done func(Completion)) error {
	operands := make([]byte, 16)
	binary.BigEndian.PutUint64(operands, compare)
	binary.BigEndian.PutUint64(operands[8:], swap)
	return qp.atomic(wrid, opCompSwap, addr, operands, done)
}

// FetchAdd posts an 8-byte atomic fetch-and-add on remote addr.
func (qp *QP) FetchAdd(wrid uint64, addr, add uint64, done func(Completion)) error {
	operands := make([]byte, 8)
	binary.BigEndian.PutUint64(operands, add)
	return qp.atomic(wrid, opFetchAdd, addr, operands, done)
}

// atomic posts a one-segment Pull carrying the operands (Table 2). Unlike
// Read it does not queue behind backpressure: a refusal is returned to the
// caller and no completion follows. Nor does it overtake parked work
// requests: while any wait in the TL, it is refused.
func (qp *QP) atomic(wrid uint64, op uint8, addr uint64, operands []byte, done func(Completion)) error {
	if qp.ep.TL().Parked() > 0 {
		return tl.ErrBackpressured
	}
	o := qp.getPullOp(op, wrid, addr, 8, 1, done)
	_, err := qp.ep.TL().PullOpData(op, addr, operands, 8, o.slots[0].fn)
	if err != nil {
		o.release()
	}
	return err
}

// target is the TL-facing receive side of the QP.
type target QP

var _ tl.TargetHandler = (*target)(nil)

// HandlePush executes arriving WRITE and SEND transactions.
func (t *target) HandlePush(rsn uint64, p *wire.Packet) tl.TargetVerdict {
	qp := (*QP)(t)
	switch p.UlpOp {
	case opSend:
		return qp.handleSend(p)
	case opWrite, 0:
		if p.Addr+uint64(p.Length) > qp.memLen {
			return tl.TargetVerdict{Kind: tl.TargetError}
		}
		if qp.mem != nil && p.Data != nil {
			copy(qp.mem[p.Addr:], p.Data)
		}
		return tl.TargetVerdict{}
	default:
		return tl.TargetVerdict{Kind: tl.TargetError}
	}
}

func (qp *QP) handleSend(p *wire.Packet) tl.TargetVerdict {
	total, off := splitSendMeta(p.Addr)
	if off == 0 {
		// New message: consume one posted receive.
		if len(qp.recvQ) == 0 {
			qp.RNRs++
			return tl.TargetVerdict{Kind: tl.TargetRNR, RetryDelay: rnrRetryDelay}
		}
		qp.cur = qp.recvQ[0]
		qp.recvQ = qp.recvQ[1:]
		qp.cur.got = 0
	}
	rb := qp.cur
	if rb == nil {
		// Mid-message segment with no active receive (duplicate RNR
		// retry tail): drop benignly.
		return tl.TargetVerdict{}
	}
	if off+int(p.Length) > rb.size {
		return tl.TargetVerdict{Kind: tl.TargetError}
	}
	if rb.buf != nil && p.Data != nil {
		copy(rb.buf[off:], p.Data)
	}
	rb.got += int(p.Length)
	if rb.got >= total {
		qp.cur = nil
		if rb.done != nil {
			rb.done(rb.got, nil)
		}
	}
	return tl.TargetVerdict{}
}

// HandlePull serves READ and ATOMIC transactions.
func (t *target) HandlePull(rsn uint64, p *wire.Packet) ([]byte, uint32, tl.TargetVerdict) {
	qp := (*QP)(t)
	switch p.UlpOp {
	case opRead, 0:
		if p.Addr+uint64(p.PullLength) > qp.memLen {
			return nil, 0, tl.TargetVerdict{Kind: tl.TargetError}
		}
		var data []byte
		if qp.mem != nil {
			data = append([]byte(nil), qp.mem[p.Addr:p.Addr+uint64(p.PullLength)]...)
		}
		return data, p.PullLength, tl.TargetVerdict{}
	case opCompSwap, opFetchAdd:
		return qp.handleAtomic(p)
	default:
		return nil, 0, tl.TargetVerdict{Kind: tl.TargetError}
	}
}

func (qp *QP) handleAtomic(p *wire.Packet) ([]byte, uint32, tl.TargetVerdict) {
	if p.Addr+8 > qp.memLen {
		return nil, 0, tl.TargetVerdict{Kind: tl.TargetError}
	}
	if qp.mem == nil || p.Data == nil {
		// Size-only simulation: 8-byte response, no value semantics.
		return nil, 8, tl.TargetVerdict{}
	}
	old := binary.BigEndian.Uint64(qp.mem[p.Addr:])
	switch p.UlpOp {
	case opCompSwap:
		compare := binary.BigEndian.Uint64(p.Data)
		swap := binary.BigEndian.Uint64(p.Data[8:])
		if old == compare {
			binary.BigEndian.PutUint64(qp.mem[p.Addr:], swap)
		}
	case opFetchAdd:
		add := binary.BigEndian.Uint64(p.Data)
		binary.BigEndian.PutUint64(qp.mem[p.Addr:], old+add)
	}
	resp := make([]byte, 8)
	binary.BigEndian.PutUint64(resp, old)
	return resp, 8, tl.TargetVerdict{}
}
