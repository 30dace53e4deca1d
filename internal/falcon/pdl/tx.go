package pdl

import (
	"fmt"
	"math"
	"time"

	"falcon/internal/falcon/ring"
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
		c.respQ.Push(p)
	} else {
		c.reqQ.Push(p)
	}
	c.trySend()
}

// trySend drains the scheduler queues while congestion and sequence windows
// allow. Responses are scheduled before requests: their resources were
// reserved at the requester, so they can always make forward progress and
// draining them releases resources fastest (§4.5).
func (c *Conn) trySend() {
	for {
		if c.respQ.Len() > 0 && c.canSendData(wire.SpaceResponse) {
			c.transmitNext(&c.respQ, &c.tx[wire.SpaceResponse])
		} else if c.reqQ.Len() > 0 && c.canSendData(wire.SpaceRequest) {
			c.transmitNext(&c.reqQ, &c.tx[wire.SpaceRequest])
		} else {
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
	ts := &c.tx[space]
	// Sequence window: never outrun the receiver's bitmap.
	if ts.next-ts.base >= wire.BitmapBits {
		return false
	}
	limit := c.Fcwnd()
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

func (c *Conn) transmitNext(q *ring.Ring[*wire.Packet], ts *txSpace) {
	p := q.Pop()
	flow := c.pickFlow()
	psn := ts.next
	if int(psn-ts.base) == len(ts.pkts) {
		ts.grow()
	}
	ts.next++

	tp := ts.slot(psn)
	*tp = txPacket{pkt: p, flow: uint8(flow)}
	c.flows[flow].outstanding++

	p.PSN = psn
	// Fractional windows pace: the next packet may go one inter-packet
	// gap (srtt/cwnd) later.
	if wnd := c.EffectiveWindow(); wnd < 1 {
		c.nextPaced = c.sim.Now().Add(c.pacingGap(wnd))
	}
	c.stampAndSend(tp, false, false)
}

// pacingGap returns the inter-packet gap srtt/cwnd for a fractional
// window, clamped to the RTO backoff cap.
func (c *Conn) pacingGap(wnd float64) time.Duration {
	base := c.srttHint
	if base == 0 {
		base = c.tlpTimeout
	}
	gap := time.Duration(float64(base) / max(wnd, 0.001))
	if gap > maxRTOBackoff {
		gap = maxRTOBackoff
	}
	return gap
}

// stampAndSend (re)transmits a tracked packet: assigns the flow's current
// label, sets T1 and the AR bit, and hands the packet to the NIC. An
// earlier transmission may still be on the wire or held by the peer, so
// the packet is unshared before it is stamped.
func (c *Conn) stampAndSend(tp *txPacket, retransmit, tlp bool) {
	tp.pkt = c.pool.Unshare(tp.pkt)
	p := tp.pkt
	f := &c.flows[tp.flow]
	now := c.sim.Now()
	tp.txTime = now
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
	// AR cadence: retransmissions, probes, every arInterval-th packet of
	// a flow, and queue-draining packets ask for an immediate ACK.
	if retransmit || tlp ||
		f.sent%arInterval == 0 ||
		c.reqQ.Len()+c.respQ.Len() == 0 {
		p.Flags |= wire.FlagAckReq
	}
	c.up.Transmit(p)
	if c.probe != nil {
		c.probe.OnSend(c, p, retransmit)
	}
	c.armTimers()
}

// maybePace arms a wakeup at the paced release instant when a fractional
// window blocked transmission (ACK clocking cannot resume an idle
// connection).
func (c *Conn) maybePace() {
	if c.reqQ.Len()+c.respQ.Len() == 0 {
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

// highestUnacked returns the newest (highest-PSN) in-flight PSN of the
// space, and false if there is none — the tail packet a TLP must probe. It
// masks the acked bitmap down to the window and takes the highest clear bit.
func (ts *txSpace) highestUnacked() (uint32, bool) {
	h := wire.LowMask(int(ts.next - ts.base)).AndNot(ts.acked).HighestSet()
	return ts.base + uint32(h), h >= 0
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

// retransmit re-sends an in-flight PSN, counting it against its cause and
// flagging it on the wire. A parked PSN is parked no more.
func (c *Conn) retransmit(space wire.Space, psn uint32, cause retxCause) {
	ts := &c.tx[space]
	if c.failed || !ts.inFlight(psn) {
		return
	}
	ts.nackedB.Clear(int(psn - ts.base))
	tp := ts.slot(psn)
	if tp.retx < math.MaxUint16 {
		tp.retx++
	}
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
