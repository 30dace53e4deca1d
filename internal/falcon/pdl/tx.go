package pdl

import (
	"fmt"
	"time"

	"falcon/internal/falcon/wire"
)

// SendPacket accepts a data packet from the transaction layer and queues it
// for transmission. The TL fills Type, RSN and Length; the PDL assigns the
// PSN, sequence space, flow and timestamps. SendPacket never blocks: the TL
// has already passed resource admission, so the PDL queue is bounded by the
// TL's resource pools. Ownership of the packet transfers to the PDL: it is
// released to the pool when acknowledged or when the connection fails.
func (c *Conn) SendPacket(p *wire.Packet) {
	if !p.Type.IsData() {
		panic(fmt.Sprintf("pdl: SendPacket on non-data packet %v", p.Type))
	}
	if c.failed {
		// The TL has already been told to error everything.
		c.pool.Release(p)
		return
	}
	p.ConnID = c.id
	p.Space = wire.SpaceOf(p.Type)
	if p.Space == wire.SpaceResponse {
		c.respQ.push(p)
	} else {
		c.reqQ.push(p)
	}
	c.trySend()
}

// trySend drains the scheduler queues while congestion and sequence windows
// allow. Responses are scheduled before requests: their resources were
// reserved at the requester, so they can always make forward progress and
// draining them releases resources fastest (§4.5).
func (c *Conn) trySend() {
	for {
		sent := false
		if c.respQ.len() > 0 && c.canSendData(wire.SpaceResponse) {
			if c.transmitNext(&c.respQ, c.tx[wire.SpaceResponse]) {
				sent = true
			}
		} else if c.reqQ.len() > 0 && c.canSendData(wire.SpaceRequest) {
			if c.transmitNext(&c.reqQ, c.tx[wire.SpaceRequest]) {
				sent = true
			}
		}
		if !sent {
			break
		}
	}
	c.maybePace()
}

// canSendData checks the connection-level windows for a packet in the given
// space: requests are gated by min(fcwnd, ncwnd), responses by fcwnd only
// (§4.4: the requester reserved RX resources for responses, so ncwnd does
// not apply).
func (c *Conn) canSendData(space wire.Space) bool {
	ts := c.tx[space]
	// Sequence window: never outrun the receiver's bitmap.
	if int(ts.next-ts.base) >= c.cfg.WindowSize {
		return false
	}
	limit := c.connFcwnd()
	if space == wire.SpaceRequest && c.ncwnd < limit {
		limit = c.ncwnd
	}
	// Congestion window counts in-flight packets only: resource-NACKed
	// packets parked on a backoff are known off the network, and counting
	// them would let a window of refused packets starve the head-of-line
	// packet the receiver is actually waiting for.
	out := float64(c.totalInFlight())
	if limit >= 1 {
		return out < limit
	}
	// Fractional window: at most one in-flight packet, released at the
	// paced instant.
	return out == 0 && c.sim.Now() >= c.nextPaced
}

// pickFlow returns the flow to carry the next packet.
func (c *Conn) pickFlow() int {
	if len(c.flows) == 1 {
		return 0
	}
	if c.cfg.Policy == PolicyRoundRobin {
		i := c.rrNext % len(c.flows)
		c.rrNext++
		return i
	}
	// Congestion-aware: the flow with the largest open window
	// fcwnd - outstanding (§4.3).
	best, bestOpen := 0, -1e18
	for i := range c.flows {
		f := &c.flows[i]
		open := f.fcwnd - float64(f.outstanding)
		if open > bestOpen {
			best, bestOpen = i, open
		}
	}
	return best
}

func (c *Conn) transmitNext(q *pktQueue, ts *txSpace) bool {
	p := q.pop()
	flow := c.pickFlow()
	psn := ts.next
	ts.next++

	tp := ts.slot(psn)
	*tp = txPacket{
		pkt:  p,
		psn:  psn,
		rsn:  p.RSN,
		gen:  tp.gen + 1,
		flow: int32(flow),
		typ:  p.Type,
		live: true,
	}
	ts.outstanding++
	c.flows[flow].outstanding++

	p.PSN = psn
	// Fractional windows pace: the next packet may go one inter-packet
	// gap (srtt/cwnd) later.
	if wnd := c.EffectiveWindow(); wnd < 1 {
		c.nextPaced = c.sim.Now().Add(c.pacingGap(wnd))
	}
	c.stampAndSend(tp, false, false)
	return true
}

// pacingGap returns the inter-packet gap srtt/cwnd for a fractional
// window, clamped to the RTO backoff cap.
func (c *Conn) pacingGap(wnd float64) time.Duration {
	base := c.srttHint
	if base == 0 {
		base = c.tlpTimeout
	}
	gap := time.Duration(float64(base) / maxf(wnd, 0.001))
	if gap > c.cfg.MaxRTOBackoff {
		gap = c.cfg.MaxRTOBackoff
	}
	return gap
}

// stampAndSend (re)transmits a tracked packet: assigns the flow's current
// label, sets T1 and the AR bit, and hands the packet to the NIC.
func (c *Conn) stampAndSend(tp *txPacket, retransmit, tlp bool) {
	p := tp.pkt
	f := &c.flows[tp.flow]
	now := c.sim.Now()
	tp.txTime = now
	if tp.origTx == 0 {
		tp.origTx = now
	}
	p.FlowLabel = f.label
	p.T1 = int64(now)
	p.Flags &^= wire.FlagRetransmit | wire.FlagTLP | wire.FlagAckReq
	f.sent++
	if retransmit {
		p.Flags |= wire.FlagRetransmit
		c.Stats.DataRetransmits++
	} else {
		c.Stats.DataSent++
	}
	if tlp {
		p.Flags |= wire.FlagTLP
	}
	// AR cadence: retransmissions, probes, every ARInterval-th packet of
	// a flow, and queue-draining packets ask for an immediate ACK.
	if retransmit || tlp ||
		(c.cfg.ARInterval > 0 && f.sent%uint64(c.cfg.ARInterval) == 0) ||
		c.reqQ.len()+c.respQ.len() == 0 {
		p.Flags |= wire.FlagAckReq
	}
	c.cb.Send(p)
	if c.probe != nil {
		c.probe.OnSend(c, p, retransmit)
	}
	c.armTimers()
}

// maybePace arms a wakeup at the paced release instant when a fractional
// window blocked transmission (ACK clocking cannot resume an idle
// connection).
func (c *Conn) maybePace() {
	if c.reqQ.len()+c.respQ.len() == 0 {
		return
	}
	if c.totalInFlight() > 0 {
		return // ACK clocking will resume transmission
	}
	if c.EffectiveWindow() >= 1 {
		return
	}
	if c.paceTimer.Pending() {
		return
	}
	at := c.nextPaced
	if at <= c.sim.Now() {
		at = c.sim.Now().Add(c.pacingGap(c.EffectiveWindow()))
	}
	c.paceTimer = c.sim.AtAction(at, &c.paceAct)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// lowestUnacked returns the oldest unacked tracked packet in the space, or
// nil.
func (ts *txSpace) lowestUnacked() *txPacket {
	for psn := ts.base; psn != ts.next; psn++ {
		tp := ts.slot(psn)
		if tp.live && !tp.acked {
			return tp
		}
	}
	return nil
}

// highestUnacked returns the newest (highest-PSN) unacked tracked packet in
// the space, or nil — the tail packet a TLP must probe. It masks the acked
// mirror down to the live window and takes the highest clear bit.
func (ts *txSpace) highestUnacked() *txPacket {
	n := int(ts.next - ts.base)
	h := wire.LowMask(n).AndNot(ts.acked).HighestSet()
	if h < 0 {
		return nil
	}
	return ts.slot(ts.base + uint32(h))
}

// retxCause identifies which recovery mechanism decided to re-send a
// packet. The split matters for diagnosis: RACK/OOO retransmits indicate
// fabric loss or reordering, TLP indicates tail silence, RTO indicates an
// outage or a collapsed window, and NACK backoff indicates receiver
// resource pressure rather than loss.
type retxCause uint8

const (
	retxRACK retxCause = iota
	retxOOO
	retxTLP
	retxRTO
	retxNackBackoff
)

// retransmit re-sends a tracked packet, counting it against its cause and
// flagging it on the wire.
func (c *Conn) retransmit(tp *txPacket, cause retxCause) {
	if c.failed || tp == nil || tp.acked {
		return
	}
	if tp.nacked {
		tp.nacked = false
		ts := c.tx[tp.pkt.Space]
		ts.nackedB.Clear(int(int32(tp.psn - ts.base)))
		ts.parked--
	}
	tp.retx++
	switch cause {
	case retxRACK:
		c.Stats.RetxRACK++
	case retxOOO:
		c.Stats.RetxOOO++
	case retxTLP:
		c.Stats.RetxTLP++
	case retxRTO:
		c.Stats.RetxRTO++
	case retxNackBackoff:
		c.Stats.RetxNackBackoff++
	}
	c.stampAndSend(tp, true, cause == retxTLP)
}
