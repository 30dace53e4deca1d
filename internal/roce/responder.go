package roce

import "falcon/internal/falcon/ring"

// Responder is the server side of a QP: it enforces the mode's receive
// ordering for the request stream, generates read responses, and serves as
// the retransmission source for the response stream.
type Responder struct {
	end

	// Request stream receiver state.
	expectedReq uint32
	reqBuf      ring.Table[*packet] // SR/AR out-of-order buffer
	nakArmed    bool

	// Response stream sender state.
	nextResp uint32
	respUna  uint32
	respPkts ring.Table[*packet]
	// respOf maps a read request PSN to the [start, count] of response
	// PSNs it generated, so duplicate requests re-trigger the responses
	// (the only read-recovery path in AR mode). An entry is forgotten
	// once the requester acknowledges all of its responses.
	respOf ring.Table[[2]uint32]

	// Stats
	Stats struct {
		DeliveredBytes uint64 // payload placed into host memory
		DroppedOOO     uint64 // packets discarded for arriving out of order
		NaksSent       uint64
		RespSent       uint64
		RespRetx       uint64
	}
}

// handle processes packets arriving at the responder.
func (r *Responder) handle(p *packet) {
	switch p.Type {
	case ptProbe:
		resp := r.packet(ptProbeResp)
		resp.T1 = p.T1
		r.send(resp)
	case ptNak:
		if p.Stream == streamResp {
			r.handleRespNak(p)
		}
	case ptAck:
		// Response-stream cumulative ack from the client.
		r.gcResponses(p.AckPSN)
	case ptWrite, ptSend, ptReadReq:
		r.handleRequest(p)
	}
}

// handleRequest applies the mode's ordering rules (§2, §6.1.1).
func (r *Responder) handleRequest(p *packet) {
	// Host-interface backpressure: unlike Falcon (whose ncwnd throttles
	// the sender before the buffer fills), a RoCE NIC without PFC drops
	// incoming data once its RX buffer is exhausted by a slow host
	// (Figure 14's contrast).
	if n := r.node.nic; n != nil && (p.Type == ptWrite || p.Type == ptSend) {
		if n.RxOccupancy() >= 1 {
			r.Stats.DroppedOOO++
			return
		}
	}
	switch {
	case p.PSN == r.expectedReq:
		r.accept(p, false)
		r.nakArmed = false
		for {
			nxt, ok := r.reqBuf.Del(uint64(r.expectedReq))
			if !ok {
				break
			}
			r.accept(nxt, true)
			r.pkts.Release(nxt)
		}
		r.sendAck()
	case p.PSN < r.expectedReq:
		// Duplicate (e.g. a go-back-N rewind overlap): re-ack, and for
		// read requests re-send their responses — the requester only
		// retransmits a request when responses went missing.
		if span, ok := r.respOf.Get(uint64(p.PSN)); ok && p.Type == ptReadReq {
			for i := uint32(0); i < span[1]; i++ {
				if rp, ok := r.respPkts.Get(uint64(span[0] + i)); ok {
					r.Stats.RespRetx++
					r.send(r.pkts.Share(rp))
				}
			}
		}
		r.sendAck()
	case r.cfg.Mode == AR:
		// Reorder-tolerant: buffer silently; loss is the sender's RTO
		// problem.
		if r.keep(&r.reqBuf, p) && p.Type == ptWrite {
			r.Stats.DeliveredBytes += uint64(p.Size)
		}
	case r.cfg.Mode == SR && p.Type == ptWrite:
		// Writes are SR-capable: place out of order and NAK each OOO
		// arrival (§6.1.1: "sends a Negative Acknowledgment for each
		// out-of-order packet").
		if r.keep(&r.reqBuf, p) {
			r.Stats.DeliveredBytes += uint64(p.Size)
		}
		r.sendNak()
	default:
		// GBN drops everything out of order, with one NAK per episode.
		// So does SR for Sends and Read Requests: "RoCE-SR is not
		// available to these IB Verbs ops".
		r.Stats.DroppedOOO++
		if !r.nakArmed {
			r.nakArmed = true
			r.sendNak()
		}
	}
}

// accept consumes one in-sequence request packet. fromBuffer marks packets
// drained from the out-of-order buffer, whose write payload was already
// placed (and counted) at buffering time in SR/AR modes.
func (r *Responder) accept(p *packet, fromBuffer bool) {
	switch p.Type {
	case ptWrite:
		countedAtBuffer := fromBuffer && r.cfg.Mode != GBN
		if !countedAtBuffer {
			r.Stats.DeliveredBytes += uint64(p.Size)
		}
		if r.node.nic != nil {
			r.node.nic.DeliverToHost(p.Size, nil)
		}
	case ptSend:
		r.Stats.DeliveredBytes += uint64(p.Size)
		if r.node.nic != nil {
			r.node.nic.DeliverToHost(p.Size, nil)
		}
	case ptReadReq:
		r.generateResponses(p)
	}
	r.expectedReq++
}

// generateResponses emits the read-response packets a request solicits.
func (r *Responder) generateResponses(req *packet) {
	r.respOf.Put(uint64(req.PSN), [2]uint32{r.nextResp, req.RespPSNs})
	for i := uint32(0); i < req.RespPSNs; i++ {
		p := r.packet(ptReadResp)
		p.PSN, p.Size, p.Stream = r.nextResp, req.RespBytes, streamResp
		r.nextResp++
		r.respPkts.Put(uint64(p.PSN), p)
		r.Stats.RespSent++
		r.send(r.pkts.Share(p))
	}
}

// handleRespNak retransmits missing response packets per the mode: SR
// resends the one named, GBN everything from it on.
func (r *Responder) handleRespNak(p *packet) {
	last := r.nextResp
	if r.cfg.Mode == SR {
		last = p.NakPSN + 1
	}
	for s := p.NakPSN; s != last; s++ {
		if rp, ok := r.respPkts.Get(uint64(s)); ok {
			r.Stats.RespRetx++
			r.send(r.pkts.Share(rp))
		}
	}
}

// gcResponses drops response retransmission state below the acked
// horizon, and forgets the read requests whose responses all lie below it.
func (r *Responder) gcResponses(ackPSN uint32) {
	for r.respUna < ackPSN {
		if rp, ok := r.respPkts.Del(uint64(r.respUna)); ok {
			r.pkts.Release(rp)
		}
		r.respUna++
	}
	for {
		lo, _ := r.respOf.Bounds()
		span, ok := r.respOf.Get(lo)
		if !ok || span[0]+span[1] > ackPSN {
			return
		}
		r.respOf.Del(lo)
	}
}

// sendAck sends the cumulative request-stream acknowledgment.
func (r *Responder) sendAck() {
	p := r.packet(ptAck)
	p.AckPSN = r.expectedReq
	r.send(p)
}

// sendNak asks for the expected request PSN.
func (r *Responder) sendNak() {
	r.Stats.NaksSent++
	p := r.packet(ptNak)
	p.Stream, p.NakPSN = streamReq, r.expectedReq
	r.send(p)
}
