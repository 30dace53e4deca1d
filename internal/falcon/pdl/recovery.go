package pdl

import (
	"math/bits"
	"time"

	"falcon/internal/falcon/fae"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// runRecovery applies the configured loss-detection heuristic to the TX
// scoreboard after ACK processing.
func (c *Conn) runRecovery(now sim.Time) {
	switch c.cfg.Recovery {
	case RecoveryRackTLP:
		c.runRack(now)
	case RecoveryOOODistance:
		c.runOOODistance()
	}
}

// runRack implements the RACK heuristic of §4.1, per flow (§4.3): a packet
// is deemed lost when (a) a packet transmitted later on the same flow has
// been SACKed (so the path has delivered past it), and (b) at least the
// reordering window has elapsed since its transmission. Packets not yet
// eligible get a timer at their eligibility instant.
//
// The candidate set — in flight and not parked — is exactly the clear
// bits of the acked|nacked bitmaps inside the window, visited in
// ascending PSN order by masked trailing-zero iteration.
func (c *Conn) runRack(now sim.Time) {
	reoWnd := c.rackReoWnd * time.Duration(c.reoWndMult)
	if c.srttHint > 0 && reoWnd > 2*c.srttHint {
		reoWnd = 2 * c.srttHint
	}
	lost := c.lostScratch[:0]
	var nextCheck sim.Time
	for i := range c.tx {
		ts := &c.tx[i]
		cand := wire.LowMask(int(ts.next - ts.base)).AndNot(ts.acked).AndNot(ts.nackedB)
		for wi, w := range cand {
			hi := wi * 64
			for w != 0 {
				o := hi + bits.TrailingZeros64(w)
				w &= w - 1
				psn := ts.base + uint32(o)
				tp := ts.slot(psn)
				f := &c.flows[tp.flow]
				if f.rackXmit <= tp.txTime {
					// Nothing sent after it has been delivered:
					// reordering cannot be ruled out yet.
					continue
				}
				eligibleAt := tp.txTime.Add(reoWnd)
				if eligibleAt <= now {
					lost = append(lost, txRef{ts.space, psn})
				} else if nextCheck == 0 || eligibleAt < nextCheck {
					nextCheck = eligibleAt
				}
			}
		}
	}
	c.lostScratch = lost[:0] // retain grown capacity for the next scan
	// PSNs, not slot pointers: a retransmit calls out (Transmit), and whatever
	// the callee sends may grow the ring under the list.
	for _, r := range lost {
		c.retransmit(r.space, r.psn, retxRACK)
	}
	if len(lost) > 0 {
		c.up.Post(fae.Event{
			Kind: fae.EventFastRetransmit,
			Conn: c.id,
			Flow: int(c.tx[lost[0].space].slot(lost[0].psn).flow),
			Now:  now,
		})
	}
	if nextCheck > 0 {
		c.rackTimer.set(c.sim, nextCheck)
	}
}

// runOOODistance implements the ablation baseline of Figure 11b: a packet
// is retransmitted when a PSN at least oooDistance above it has been
// SACKed, regardless of time — fast for true losses, spurious under
// reordering.
func (c *Conn) runOOODistance() {
	retransmitted := false
	for i := range c.tx {
		ts := &c.tx[i]
		// Offsets are base-relative, so the distance below the highest
		// SACK survives the uint32 PSN wrap.
		h := ts.acked.HighestSet()
		if h < 0 {
			continue
		}
		// Offsets strictly more than oooDistance-1 below the highest SACK:
		// [0, h-oooDistance+1), minus acked and parked packets.
		lim := h - oooDistance + 1
		if lim <= 0 {
			continue
		}
		cand := wire.LowMask(lim).AndNot(ts.acked).AndNot(ts.nackedB)
		for wi, w := range cand {
			hi := wi * 64
			for w != 0 {
				o := hi + bits.TrailingZeros64(w)
				w &= w - 1
				c.retransmit(ts.space, ts.base+uint32(o), retxOOO)
				retransmitted = true
			}
		}
	}
	if retransmitted {
		c.up.Post(fae.Event{
			Kind: fae.EventFastRetransmit,
			Conn: c.id,
			Now:  c.sim.Now(),
		})
	}
}

// onTLP fires the tail loss probe: after tlpTimeout of ACK inactivity, the
// highest unacked PSN — the tail — is retransmitted to elicit a fresh ACK
// whose bitmap lets RACK repair everything before it (§4.1). Probing the
// tail rather than the head matters for liveness: a lost tail packet has
// nothing sent after it, so RACK alone can never declare it lost, and the
// head may be a request a resource-pressured receiver keeps refusing while
// it waits for exactly the RSN the tail carries.
func (c *Conn) onTLP() {
	if c.failed || c.Outstanding() == 0 {
		return
	}
	if c.sim.Now().Sub(c.lastAckProgress) < c.tlpTimeout {
		// Progress happened since arming; re-arm for the remainder.
		c.tlpTimer.set(c.sim, c.sim.Now().Add(c.tlpTimeout))
		return
	}
	probe, found := txRef{}, false
	for i := range c.tx {
		ts := &c.tx[i]
		psn, ok := ts.highestUnacked()
		if ok && (!found || ts.slot(psn).txTime < c.tx[probe.space].slot(probe.psn).txTime) {
			probe, found = txRef{ts.space, psn}, true
		}
	}
	if found {
		c.Stats.TLPProbes++
		c.retransmit(probe.space, probe.psn, retxTLP)
	}
	// The RTO remains armed as the backstop; TLP re-arms on new ACKs.
}

// onRTO is the last-resort timeout: collapse the window via the FAE (which
// also flips the flow label — PRR), run a full retransmission scan of each
// space, and back off exponentially. The scan must cover EVERY unacked
// packet, not just the head: faster recovery paths are selective (RACK
// needs a later delivery on the same flow, TLP probes only the tail, the
// NACK backoff only re-sends packets the peer has seen), so a dropped
// packet in the middle of the window has no other guaranteed path back
// onto the wire — and it may carry the one RSN a resource-pressured
// receiver is waiting for before it can drain its reorder buffer.
func (c *Conn) onRTO() {
	if c.failed || c.Outstanding() == 0 {
		return
	}
	c.Stats.RTOs++
	c.consecRTOs++
	if uint64(c.consecRTOs) > c.Stats.MaxConsecRTOs {
		c.Stats.MaxConsecRTOs = uint64(c.consecRTOs)
	}
	if c.consecRTOs >= maxConsecutiveRTOs {
		c.fail()
		return
	}
	now := c.sim.Now()
	for i := range c.tx {
		ts := &c.tx[i]
		// Every unacked live packet, parked ones included (the RTO
		// supersedes their pending backoff). ts.next is re-read after each
		// mask is drained: the first retransmit posts EventRTO, and with a
		// zero FAE response delay the window update re-enters trySend
		// synchronously, so brand-new packets can be stamped while the
		// scan is still running, and a freshly sent tail packet must not
		// escape the RTO retransmission. Growth only ever appends offsets
		// past the previous bound (base and the acked bitmap change only
		// on packet receipt, never inside this loop), so extending keeps
		// the visit in ascending PSN order.
		scanned := false
		for lo := 0; ; {
			hiBound := int(ts.next - ts.base)
			if lo >= hiBound {
				break
			}
			cand := wire.LowMask(hiBound).AndNot(wire.LowMask(lo)).AndNot(ts.acked)
			lo = hiBound
			for wi, w := range cand {
				hi := wi * 64
				for w != 0 {
					o := hi + bits.TrailingZeros64(w)
					w &= w - 1
					psn := ts.base + uint32(o)
					if !scanned {
						scanned = true
						c.up.Post(fae.Event{
							Kind: fae.EventRTO, Conn: c.id, Flow: int(ts.slot(psn).flow), Now: now,
						})
					}
					c.retransmit(ts.space, psn, retxRTO)
				}
			}
		}
	}
	if c.rtoBackoff < 8 {
		c.rtoBackoff++
	}
	// Overwrite the deadline with the backed-off interval (the retransmit
	// path just re-armed it at the pre-backoff value).
	c.rtoTimer.set(c.sim, now.Add(c.rtoDelay()))
}

// fail declares the connection dead: timers stop, queues drop (their
// packets return to the pool, as do the tracked unacked ones), and the TL
// is told to error everything pending (§5.2: exceptions are handled in the
// fast path, not by retrying forever).
func (c *Conn) fail() {
	if c.failed {
		return
	}
	c.failed = true
	c.rtoTimer.stop()
	c.tlpTimer.stop()
	c.rackTimer.stop()
	c.paceTimer.Stop()
	for c.reqQ.Len() > 0 {
		c.pool.Release(c.reqQ.Pop())
	}
	for c.respQ.Len() > 0 {
		c.pool.Release(c.respQ.Pop())
	}
	for i := range c.tx {
		ts := &c.tx[i]
		for psn := ts.base; psn != ts.next; psn++ {
			if ts.inFlight(psn) {
				c.pool.Release(ts.slot(psn).pkt)
				ts.slot(psn).pkt = nil
			}
		}
	}
	c.up.Fail(ErrConnectionLost)
}

// Fail declares the connection administratively dead from outside the
// transport — the teardown edge of a crash-without-recovery fault. It runs
// the same path as RTO-budget exhaustion: timers stop, queued and unacked
// packets return to the pool, and Upper.Fail errors everything
// the TL still has pending. Idempotent, like the internal failure path.
func (c *Conn) Fail() { c.fail() }
