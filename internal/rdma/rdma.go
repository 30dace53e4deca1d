// Package rdma is the RDMA ULP mapping layer of Figure 2: it exposes an IB
// Verbs-flavoured API (RC queue pairs with WRITE, SEND/RECV, READ and
// ATOMIC operations) and maps each operation onto Falcon transactions per
// Table 2 — WRITE and SEND become Push transactions, READ and ATOMICs
// become Pulls. Every work request posts through one internal/ulp
// descriptor, which segments it into transactions of the connection's MTU
// (§4.4 "MTU Granularity") and parks it in the transaction layer while
// refused, so the QP keeps no queue of its own; ordered Falcon connections
// provide the IB Verbs ordering the completions rely on.
package rdma

import (
	"encoding/binary"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
	"falcon/internal/ulp"
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

	// port posts every work request; pushFree and pullFree are its
	// descriptor pools for WRITE/SEND and for READ/ATOMIC.
	port               *ulp.Port[workRequest]
	pushFree, pullFree sim.FreeList[ulp.Op[workRequest]]

	// Stats
	RNRs uint64
}

// workRequest is the per-op context a descriptor carries to complete.
type workRequest struct {
	wrid uint64
	seq  uint64
	done func(Completion)
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
	qp.port = ulp.NewPort(ep.TL(), qp.complete)
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

// newWR makes a work request's context, assigning its position in the
// completion order.
func (qp *QP) newWR(wrid uint64, done func(Completion)) workRequest {
	wr := workRequest{wrid: wrid, seq: qp.nextSeq, done: done}
	qp.nextSeq++
	return wr
}

// complete is the port's completion function.
func (qp *QP) complete(wr workRequest, data []byte, err error) {
	qp.deliver(wr.seq, Completion{WRID: wr.wrid, Err: err, Data: data}, wr.done)
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
	qp.port.Post(&qp.pushFree, ulp.Msg{Op: opWrite, Addr: addr, Data: data, Size: size}, qp.newWR(wrid, done))
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
	qp.port.Post(&qp.pushFree, ulp.Msg{Op: opSend, Addr: sendMeta(size, 0), Data: data, Size: size}, qp.newWR(wrid, done))
	return nil
}

// sendMeta packs a SEND's total message size and segment offset into the
// opaque Addr field (the ULP header a real stack would carry in-payload):
// a SEND's segments carry sendMeta(total, 0) plus their offset.
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
	qp.port.Post(&qp.pullFree, ulp.Msg{Pull: true, Op: opRead, Addr: addr, Size: size}, qp.newWR(wrid, done))
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
// requests: while any wait in the TL, it is refused. A refused ATOMIC gives
// back its place in the completion order.
func (qp *QP) atomic(wrid uint64, op uint8, addr uint64, operands []byte, done func(Completion)) error {
	m := ulp.Msg{Pull: true, Op: op, Addr: addr, Data: operands, Size: 8}
	err := qp.port.Try(&qp.pullFree, m, qp.newWR(wrid, done))
	if err != nil {
		qp.nextSeq--
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
