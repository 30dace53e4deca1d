package pdl

import (
	"math/bits"
	"time"

	"falcon/internal/falcon/fae"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// HandlePacket is the connection's ingress from the fabric. hops is the
// path hop count observed by the NIC (a congestion-signal input, Table 3).
func (c *Conn) HandlePacket(p *wire.Packet, hops int) {
	if c.failed {
		return
	}
	c.hops = int32(hops)
	switch p.Type {
	case wire.TypeAck:
		c.handleAck(p)
	case wire.TypeNack:
		c.handleNack(p)
	default:
		if p.Type.IsData() {
			c.handleData(p)
		}
	}
	if c.probe != nil {
		c.probe.OnReceive(c, p)
	}
}

// handleData runs the receiver pipeline: RX window bookkeeping, delivery to
// the TL, and ACK generation with per-flow coalescing (§4.1, §4.3).
func (c *Conn) handleData(p *wire.Packet) {
	rs := &c.rx[p.Space]
	flowIdx := p.FlowLabel.FlowIndex()
	if flowIdx >= len(c.rxFlow) {
		flowIdx = 0
	}
	rf := &c.rxFlow[flowIdx]
	now := c.sim.Now()

	// Serial arithmetic: PSNs wrap at 2^32, so the offset from base must be
	// computed as a signed 32-bit difference, never an absolute comparison.
	diff := int64(int32(p.PSN - rs.base))
	switch {
	case diff < 0 || (diff < wire.BitmapBits && rs.bitmap.Get(int(diff))):
		// Duplicate (e.g. a retransmission racing a lost ACK). ACK
		// promptly so the sender converges.
		c.Stats.Duplicates++
		rf.t1, rf.t2, rf.valid = p.T1, int64(now), true
		c.Stats.AcksImmediate++
		c.sendAck(flowIdx)
		return
	case diff >= wire.BitmapBits:
		// Outside the representable window. A compliant sender's
		// sequence window prevents this; drop and count.
		c.Stats.RxWindowDrops++
		return
	}

	verdict := c.up.DeliverData(p)
	switch verdict.Kind {
	case DeliverNoResources:
		// Not recorded as received: the sender must retransmit once
		// resources free up.
		c.sendNack(p, wire.NackResourceExhausted, 0)
		return
	case DeliverRNR:
		// Received at the PDL level; the transaction retry is handled
		// end-to-end by the TLs.
		rs.bitmap.Set(int(diff))
		c.sendNack(p, wire.NackRNR, verdict.RetryDelay)
	case DeliverCIE:
		rs.bitmap.Set(int(diff))
		c.sendNack(p, wire.NackCIE, 0)
	default: // DeliverAccept
		rs.bitmap.Set(int(diff))
		c.Stats.DeliveredToTL++
	}

	// Advance the cumulative base over the leading received run.
	if run := rs.bitmap.LeadingRun(); run > 0 && diff < int64(run) {
		rs.bitmap.ShiftRight(run)
		rs.base += uint32(run)
	}

	// Per-flow congestion metadata and ACK coalescing.
	rf.t1, rf.t2, rf.valid = p.T1, int64(now), true
	if p.Flags&wire.FlagCE != 0 {
		rf.ceSeen = true
	}
	rf.pending++
	if p.Flags&wire.FlagAckReq != 0 || rf.pending >= ackCoalesceCount {
		c.Stats.AcksImmediate++
		c.sendAck(flowIdx)
	} else if !rf.ackTimer.Pending() {
		rf.ackTimer = c.sim.AtAction(now.Add(ackCoalesceDelay), rf)
	}
}

// sendAck emits an ACK carrying the RX window bitmaps of both spaces plus
// the congestion metadata of the given flow. The packet comes from the
// connection pool, and the PDL drops its hold as soon as Transmit returns:
// the wire's hold is the last one.
func (c *Conn) sendAck(flowIdx int) {
	rf := &c.rxFlow[flowIdx]
	rf.pending = 0
	rf.ackTimer.Stop()
	now := c.sim.Now()
	ack := c.pool.Acquire()
	ack.Type = wire.TypeAck
	ack.ConnID = c.id
	ack.FlowLabel = c.flows[flowIdx%len(c.flows)].label
	ack.AckFlowIndex = uint8(flowIdx)
	ack.T3 = int64(now)
	ack.Req = wire.AckInfo{Base: c.rx[wire.SpaceRequest].base, Bitmap: c.rx[wire.SpaceRequest].bitmap}
	ack.Resp = wire.AckInfo{Base: c.rx[wire.SpaceResponse].base, Bitmap: c.rx[wire.SpaceResponse].bitmap}
	if rf.valid {
		ack.T1Echo, ack.T2 = rf.t1, rf.t2
	}
	if rf.ceSeen {
		ack.Flags |= wire.FlagECE
		rf.ceSeen = false
	}
	ack.RxBufOccupancy = uint16(min(max(c.up.RxOccupancy(), 0), 1) * 65535)
	ack.CompletedRSN = c.up.Horizon()
	c.Stats.AcksSent++
	c.up.Transmit(ack)
	c.pool.Release(ack)
}

// SendExceptionNack lets the transaction layer raise an RNR or CIE NACK
// for a request it had already accepted (ordered connections process
// requests after reordering, so the ULP verdict can arrive later than the
// DeliverData call).
func (c *Conn) SendExceptionNack(space wire.Space, psn uint32, rsn uint64, code wire.NackCode, retry time.Duration) {
	c.sendNack(&wire.Packet{PSN: psn, Space: space, RSN: rsn}, code, retry)
}

// sendNack emits an exception NACK for a specific packet.
func (c *Conn) sendNack(p *wire.Packet, code wire.NackCode, retry time.Duration) {
	n := c.pool.Acquire()
	n.Type = wire.TypeNack
	n.NackCode = code
	n.ConnID = c.id
	n.FlowLabel = c.flows[0].label
	n.PSN = p.PSN
	n.Space = p.Space
	n.RSN = p.RSN
	n.RetryDelayNs = uint32(retry.Nanoseconds())
	n.Req = wire.AckInfo{Base: c.rx[wire.SpaceRequest].base, Bitmap: c.rx[wire.SpaceRequest].bitmap}
	n.Resp = wire.AckInfo{Base: c.rx[wire.SpaceResponse].base, Bitmap: c.rx[wire.SpaceResponse].bitmap}
	c.Stats.NacksSent++
	c.up.Transmit(n)
	c.pool.Release(n)
}

// handleAck runs the sender pipeline for an arriving ACK: SACK processing
// per space, per-flow accounting, delay measurement, FAE eventing, loss
// recovery and send-window reopening.
func (c *Conn) handleAck(p *wire.Packet) {
	c.Stats.AcksReceived++
	now := c.sim.Now()

	var counts [wire.MaxFlows]int
	perFlow := counts[:len(c.flows)]
	progress := c.processAckInfo(&c.tx[wire.SpaceRequest], p.Req, perFlow)
	if c.processAckInfo(&c.tx[wire.SpaceResponse], p.Resp, perFlow) {
		progress = true
	}

	// Ordered-completion horizon from the target's TL.
	if p.CompletedRSN > 0 {
		c.up.AdvanceHorizon(p.CompletedRSN)
	}

	if progress {
		c.resetTimersOnProgress()
	}

	// Delay measurement: (t4-t1)-(t3-t2) needs no clock sync (§4.2).
	ackFlow := int(p.AckFlowIndex)
	if ackFlow >= len(c.flows) {
		ackFlow = 0
	}
	if p.T1Echo > 0 {
		rtt := now.Sub(sim.Time(p.T1Echo))
		fabric := rtt - time.Duration(p.T3-p.T2)
		if fabric < 0 {
			fabric = 0
		}
		if rtt > 0 {
			if c.srttHint == 0 {
				c.srttHint = rtt
			} else {
				c.srttHint = (7*c.srttHint + rtt) / 8
			}
		}
		acked := perFlow[ackFlow]
		c.up.Post(fae.Event{
			Kind:           fae.EventAck,
			Conn:           c.id,
			Flow:           ackFlow,
			Now:            now,
			FabricDelay:    fabric,
			RTT:            rtt,
			AckedPackets:   acked,
			Hops:           int(c.hops),
			RxBufOccupancy: float64(p.RxBufOccupancy) / 65535,
			ECE:            p.Flags&wire.FlagECE != 0,
		})
	}

	// Loss recovery over the updated SACK scoreboard.
	c.runRecovery(now)
	c.trySend()
}

// processAckInfo folds one space's ACK info into the TX scoreboard. It
// reports whether any packet was newly acknowledged.
//
// It scans the acked bitmap and the wire bitmap a word at a time instead
// of walking PSNs one by one, yet marks packets in ascending PSN order —
// cumulative range first, then selective bits — because TL completion
// order depends on it (scan_model_test.go holds it to the per-PSN walk).
func (c *Conn) processAckInfo(ts *txSpace, info wire.AckInfo, perFlow []int) bool {
	progress := false
	// Cumulative portion. Serial arithmetic throughout: PSNs wrap at 2^32,
	// so ordering is a signed 32-bit difference, never a widened comparison.
	if int32(info.Base-ts.base) > 0 {
		lim := int32(info.Base - ts.base)
		if n := int32(ts.next - ts.base); n < lim {
			lim = n
		}
		// Every live offset below lim that is not yet acked.
		for wi, w := range wire.LowMask(int(lim)).AndNot(ts.acked) {
			for w != 0 {
				o := wi*64 + bits.TrailingZeros64(w)
				w &= w - 1
				if c.markAcked(ts, ts.base+uint32(o), perFlow) {
					progress = true
				}
			}
		}
		if int32(info.Base-ts.next) <= 0 {
			ts.advanceTo(info.Base)
		} else {
			ts.advanceTo(ts.next)
		}
	}
	// Selective portion: visit the set bits of the wire bitmap; markAcked
	// skips those outside the window.
	for wi, w := range info.Bitmap {
		for w != 0 {
			psn := info.Base + uint32(wi*64+bits.TrailingZeros64(w))
			w &= w - 1
			if c.markAcked(ts, psn, perFlow) {
				progress = true
			}
		}
	}
	ts.slideBase()
	return progress
}

// slideBase advances the window base over the leading run of acked
// packets (SACKed contiguously).
func (ts *txSpace) slideBase() {
	run := ts.acked.LeadingRun()
	if n := int(ts.next - ts.base); run > n {
		run = n
	}
	if run > 0 {
		ts.advanceTo(ts.base + uint32(run))
	}
}

// markAcked marks one PSN acknowledged, returning true if it was in
// flight on a live connection (failing released the packets). The packet
// returns to the pool before the TL is told its RSN and type, so an acked
// slot never holds one.
func (c *Conn) markAcked(ts *txSpace, psn uint32, perFlow []int) bool {
	if c.failed || !ts.inFlight(psn) {
		return false
	}
	off := int(psn - ts.base)
	ts.acked.Set(off)
	ts.nackedB.Clear(off)
	tp := ts.slot(psn)
	f := &c.flows[tp.flow]
	f.outstanding--
	perFlow[tp.flow]++
	// Spurious-retransmission detection: an ACK landing well under an
	// RTT after our retransmission must cover the original transmission,
	// so the reordering window was too small — widen it (RACK reo-window
	// adaptation).
	if tp.retx > 0 && c.srttHint > 0 &&
		c.sim.Now().Sub(tp.txTime) < 3*c.srttHint/4 && c.reoWndMult < 16 {
		c.reoWndMult *= 2
	}
	// Per-flow RACK: remember the most recent transmission time that is
	// known delivered on this flow.
	if tp.txTime > f.rackXmit {
		f.rackXmit = tp.txTime
	}
	p := tp.pkt
	tp.pkt = nil
	rsn, typ := p.RSN, p.Type
	c.pool.Release(p)
	c.up.Acked(ts.space, psn, rsn, typ)
	return true
}

// handleNack processes an exception NACK at the sender.
func (c *Conn) handleNack(p *wire.Packet) {
	c.Stats.NacksReceived++
	switch p.NackCode {
	case wire.NackRNR:
		c.Stats.NacksRnr++
	case wire.NackResourceExhausted:
		c.Stats.NacksResource++
	case wire.NackCIE:
		c.Stats.NacksCie++
	}
	ts := &c.tx[p.Space]
	switch p.NackCode {
	case wire.NackResourceExhausted:
		if !ts.inFlight(p.PSN) {
			return
		}
		// Back off, then retransmit; also tell the FAE the peer NIC
		// is resource-pressured.
		c.up.Post(fae.Event{
			Kind: fae.EventNack, Conn: c.id, Flow: int(ts.slot(p.PSN).flow), Now: c.sim.Now(),
		})
		// A synchronous FAE response may have sent, which moves next but
		// not base.
		if off := int(p.PSN - ts.base); !ts.nackedB.Get(off) {
			ts.nackedB.Set(off)
			c.scheduleNackRetry(p.Space, p.PSN, c.rto/4)
			// Parking the packet opened congestion window: the scheduler
			// may now transmit queued packets — in particular a
			// head-of-line RNR retry the receiver is waiting for.
			c.trySend()
		}
	case wire.NackRNR, wire.NackCIE:
		// The transaction-level consequence (retry or complete-in-error)
		// belongs to the TL, and it must learn of it BEFORE the PDL-level
		// ack below: on unordered connections a push completes when its
		// packet is acked, and an RNR means the target explicitly did NOT
		// take responsibility — the TL marks the transaction as retrying
		// so the ack frees the packet context without completing it.
		c.up.Nacked(p)
		// PDL-level delivery is done: free the packet context.
		var counts [wire.MaxFlows]int
		if c.markAcked(ts, p.PSN, counts[:len(c.flows)]) {
			ts.slideBase()
			c.resetTimersOnProgress()
		}
		c.trySend()
	}
}
