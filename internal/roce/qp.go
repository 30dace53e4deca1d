package roce

import (
	"time"

	"falcon/internal/falcon/ring"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// Connect establishes an RC QP between a client (requester) and server
// (responder) node. The returned QP issues Write/Send/Read operations; the
// Responder exposes delivery counters. Both ends draw their packets from
// one pool: a packet built at one end is released at the other, back into
// the free list it came from.
func Connect(client, server *Node, id uint32, cfg Config) (*QP, *Responder) {
	if cfg.MTU <= 0 {
		cfg.MTU = 4096
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 128
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 500 * time.Microsecond
	}
	pkts := new(pktPool)
	qp := &QP{rateGbps: cfg.LinkGbps}
	qp.end = end{node: client, cfg: cfg, id: id, dst: server.host.ID, salt: 0x5a5a, spray: cfg.Mode == AR, pkts: pkts}
	// Bind the callbacks once: evaluating a method value (q.pump,
	// q.onRTO, q.sendProbe) allocates a closure at each use, and the pump
	// and timer paths run per packet.
	qp.pumpFn = qp.pump
	qp.onRTOFn = qp.onRTO
	qp.sendProbeFn = qp.sendProbe
	if qp.rateGbps <= 0 {
		qp.rateGbps = rttccMaxRateGbps
	}
	r := &Responder{end: end{node: server, cfg: cfg, id: id, dst: client.host.ID, salt: 0xa5a5, pkts: pkts}}
	qp.join(qp.handle)
	r.join(r.handle)
	qp.peer, r.peer = r.key, qp.key
	return qp, r
}

// op is one outstanding IB Verbs operation, drawn from its QP's pool when
// posted and released when it completes.
type op struct {
	totalPkts int
	ackedPkts int
	done      func()
	wire.Holds
}

// QP is the requester side.
type QP struct {
	end
	ops wire.Pool[op, *op]

	// Request stream sender state.
	nextPSN uint32
	una     uint32              // lowest unacked
	reqPkts ring.Table[*packet] // sent and unacknowledged, by PSN
	sendQ   ring.Ring[*packet]

	// Read response receiver state.
	expectedResp uint32
	respAlloc    uint32
	respWait     ring.Table[*packet] // predicted response PSN -> its read request
	respBuf      ring.Table[*packet] // SR/AR out-of-order responses
	respNakArmed bool

	// Rate-based CC.
	rateGbps   float64
	nextSend   sim.Time
	probeTimer sim.Timer
	lastDecr   sim.Time

	rtoTimer  sim.Timer
	pumpTimer sim.Timer

	// Bound method values (see Connect): timer callbacks without per-arm
	// closure allocations.
	pumpFn      func()
	onRTOFn     func()
	sendProbeFn func()

	// Stats
	Stats struct {
		DataSent     uint64
		Retransmits  uint64
		RTOs         uint64
		NaksReceived uint64
		ReadBytes    uint64
		OpsCompleted uint64
	}
}

// RateGbps returns the current RTTCC sending rate.
func (q *QP) RateGbps() float64 { return q.rateGbps }

// Write posts an RDMA WRITE of size bytes.
func (q *QP) Write(size int, done func()) { q.post(ptWrite, size, done) }

// Send posts an RDMA SEND of size bytes.
func (q *QP) Send(size int, done func()) { q.post(ptSend, size, done) }

// Read posts an RDMA READ of size bytes: one single-packet request per MTU
// chunk, each soliciting one response packet.
func (q *QP) Read(size int, done func()) { q.post(ptReadReq, size, done) }

// post queues one request-stream packet per MTU segment of an op.
func (q *QP) post(t pktType, size int, done func()) {
	o := q.ops.Acquire()
	o.totalPkts, o.done = wire.Segments(size, q.cfg.MTU), done
	for i := 0; i < o.totalPkts; i++ {
		_, seg := wire.Segment(size, q.cfg.MTU, i)
		p := q.packet(t)
		p.op, p.Size, p.Stream = o, seg, streamReq
		if t == ptReadReq {
			p.Size, p.RespPSNs, p.RespBytes = 16, 1, seg
		}
		q.sendQ.Push(p)
	}
	q.pump()
}

// land counts one finished packet of o; the last one completes the op,
// which goes back to the pool before done runs.
func (q *QP) land(o *op) {
	if o.ackedPkts++; o.ackedPkts < o.totalPkts {
		return
	}
	done := o.done
	q.ops.Release(o)
	q.Stats.OpsCompleted++
	if done != nil {
		done()
	}
}

// outstanding counts unacked request packets plus unreceived solicited
// response packets.
func (q *QP) outstanding() int {
	return int(q.nextPSN-q.una) + int(q.respAlloc-q.expectedResp)
}

// pump transmits queued packets subject to the window and the RTTCC rate.
func (q *QP) pump() {
	now := q.node.sim.Now()
	for q.sendQ.Len() > 0 {
		if q.outstanding() >= q.cfg.WindowSize {
			return // ack-clocked
		}
		if q.nextSend > now {
			if !q.pumpTimer.Pending() {
				q.pumpTimer = q.node.sim.At(q.nextSend, q.pumpFn)
			}
			return
		}
		p := q.sendQ.Pop()
		p.PSN = q.nextPSN
		q.nextPSN++
		q.reqPkts.Put(uint64(p.PSN), p)
		// A read request predicts the response PSNs it will elicit.
		for i := uint32(0); i < p.RespPSNs; i++ {
			q.respWait.Put(uint64(q.respAlloc), q.pkts.Share(p))
			q.respAlloc++
		}
		q.transmit(p, false)
	}
}

// transmit sends (or retransmits) one request-stream packet.
func (q *QP) transmit(p *packet, retx bool) {
	if retx {
		q.Stats.Retransmits++
	} else {
		q.Stats.DataSent++
	}
	// Pace at the CC rate.
	gap := time.Duration(float64(headerBytes+p.Size) * 8 / q.rateGbps)
	now := q.node.sim.Now()
	if q.nextSend < now {
		q.nextSend = now
	}
	q.nextSend = q.nextSend.Add(gap)
	q.send(q.pkts.Share(p))
	q.armTimers()
}

func (q *QP) armTimers() {
	if q.outstanding() == 0 {
		q.rtoTimer.Stop()
		q.probeTimer.Stop()
		return
	}
	if !q.rtoTimer.Pending() {
		q.rtoTimer = q.node.sim.After(q.cfg.RTO, q.onRTOFn)
	}
	if !q.probeTimer.Pending() {
		q.probeTimer = q.node.sim.After(rttccProbeInterval, q.sendProbeFn)
	}
}

func (q *QP) sendProbe() {
	if q.outstanding() == 0 {
		return
	}
	p := q.packet(ptProbe)
	p.T1 = int64(q.node.sim.Now())
	q.send(p)
	q.probeTimer = q.node.sim.After(rttccProbeInterval, q.sendProbeFn)
}

// onRTO is the timeout path: collapse the rate and go-back-N from the
// lowest unacked request (all modes; AR has no other recovery signal).
// The responder acknowledges a read request on arrival, so the rewind no
// longer covers one whose response was lost: re-issue the request that
// solicited the response the QP waits on, as InfiniBand does, and let a
// GBN gap be NAKed again.
func (q *QP) onRTO() {
	if q.outstanding() == 0 {
		return
	}
	q.Stats.RTOs++
	q.rateGbps = max(rttccMinRateGbps, q.rateGbps/2)
	q.goBackN(q.una)
	if rq, ok := q.respWait.Get(uint64(q.expectedResp)); ok && rq.PSN < q.una {
		q.transmit(rq, true)
	}
	q.respNakArmed = false
	q.rtoTimer.Stop()
	q.armTimers()
}

// handle processes packets arriving at the requester.
func (q *QP) handle(p *packet) {
	switch p.Type {
	case ptAck:
		q.handleAck(p)
	case ptNak:
		q.handleNak(p)
	case ptReadResp:
		q.handleReadResp(p)
	case ptProbeResp:
		q.handleProbeResp(p)
	}
}

func (q *QP) handleAck(p *packet) {
	progressed := false
	for q.una < p.AckPSN && q.una != q.nextPSN {
		if rp, ok := q.reqPkts.Del(uint64(q.una)); ok {
			if rp.Type != ptReadReq { // reads complete on response data
				q.land(rp.op)
			}
			q.pkts.Release(rp)
		}
		q.una++
		progressed = true
	}
	if progressed {
		q.rtoTimer.Stop()
		q.armTimers()
		q.pump()
	}
}

func (q *QP) handleNak(p *packet) {
	q.Stats.NaksReceived++
	if p.Stream == streamResp {
		// Client NAKs about responses are handled at the server; a NAK
		// arriving here names a missing *request* PSN.
		return
	}
	// SR retransmits exactly the missing packet, but only for Writes;
	// for Sends and Read Requests the responder asked for a rewind, as
	// it always does in GBN (AR never NAKs).
	if rp, ok := q.reqPkts.Get(uint64(p.NakPSN)); ok && q.cfg.Mode == SR && rp.Type == ptWrite {
		q.transmit(rp, true)
		return
	}
	q.goBackN(p.NakPSN)
}

// goBackN retransmits every unacked request from psn.
func (q *QP) goBackN(psn uint32) {
	for s := psn; s != q.nextPSN; s++ {
		if rp, ok := q.reqPkts.Get(uint64(s)); ok {
			q.transmit(rp, true)
		}
	}
}

// handleReadResp processes an arriving read-response packet with the
// mode's ordering semantics.
func (q *QP) handleReadResp(p *packet) {
	switch {
	case p.PSN == q.expectedResp:
		q.acceptResp(p)
		q.respNakArmed = false
		// Drain buffered responses.
		for {
			nxt, ok := q.respBuf.Del(uint64(q.expectedResp))
			if !ok {
				break
			}
			q.acceptResp(nxt)
			q.pkts.Release(nxt)
		}
		// Ack response progress so the responder can garbage-collect
		// retransmission state.
		ack := q.packet(ptAck)
		ack.AckPSN = q.expectedResp
		q.send(ack)
		q.pump()
	case p.PSN < q.expectedResp:
		// Duplicate; ignore.
	default: // gap in the response stream
		switch q.cfg.Mode {
		case SR:
			// Read responses are SR-capable: buffer and NAK the
			// missing one.
			q.keep(&q.respBuf, p)
			q.sendRespNak()
		case AR:
			q.keep(&q.respBuf, p) // tolerate; recover by RTO
		default: // GBN: drop OOO, NAK once per episode
			if !q.respNakArmed {
				q.respNakArmed = true
				q.sendRespNak()
			}
		}
	}
}

// acceptResp consumes one in-order response packet.
func (q *QP) acceptResp(p *packet) {
	if rq, ok := q.respWait.Del(uint64(q.expectedResp)); ok {
		q.Stats.ReadBytes += uint64(p.Size)
		q.land(rq.op)
		q.pkts.Release(rq)
	}
	q.expectedResp++
	q.rtoTimer.Stop()
	q.armTimers()
}

func (q *QP) sendRespNak() {
	p := q.packet(ptNak)
	p.Stream, p.NakPSN = streamResp, q.expectedResp
	q.send(p)
}

// handleProbeResp folds one RTT probe into the RTTCC rate.
func (q *QP) handleProbeResp(p *packet) {
	now := q.node.sim.Now()
	rtt := now.Sub(sim.Time(p.T1))
	if rtt <= q.cfg.CC.TargetRTT {
		q.rateGbps += rttccAIGbps
	} else if now.Sub(q.lastDecr) >= rttccProbeInterval {
		q.rateGbps *= rttccMD
		q.lastDecr = now
	}
	if q.rateGbps > rttccMaxRateGbps {
		q.rateGbps = rttccMaxRateGbps
	}
	if q.rateGbps < rttccMinRateGbps {
		q.rateGbps = rttccMinRateGbps
	}
}
