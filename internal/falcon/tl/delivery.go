package tl

import (
	"time"

	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/wire"
)

// Deliver is the PDL's upcall for arriving data packets. The TL performs
// resource admission here; ULP processing happens in RSN order (ordered
// connections) via the reorder buffer.
func (c *Conn) Deliver(p *wire.Packet) pdl.DeliverVerdict {
	if p.Space == wire.SpaceResponse {
		c.deliverResponse(p)
		return pdl.DeliverVerdict{Kind: pdl.DeliverAccept}
	}
	return c.deliverRequest(p)
}

// deliverRequest is the target-side request path: admission, ordering,
// ULP handling.
func (c *Conn) deliverRequest(p *wire.Packet) pdl.DeliverVerdict {
	// Stale or duplicate RSNs (e.g. an RNR retry racing a completion)
	// are accepted idempotently: the completion horizon informs the
	// initiator.
	if p.RSN < c.expectedRSN && c.cfg.Ordered {
		return pdl.DeliverVerdict{Kind: pdl.DeliverAccept}
	}
	if c.reorderBuf.has(p.RSN) {
		return pdl.DeliverVerdict{Kind: pdl.DeliverAccept}
	}

	bytes := int(p.Length)
	hol := !c.cfg.Ordered || p.RSN == c.expectedRSN
	if err := c.res.AdmitRxRequest(c.id, bytes, hol); err != nil {
		return pdl.DeliverVerdict{Kind: pdl.DeliverNoResources}
	}

	// Snapshot the packet: the inbound wire packet belongs to the
	// receive path and may be recycled as soon as this upcall returns,
	// so the reorder buffer cannot retain the pointer (Data aliasing is
	// fine — payload slices are never pooled).
	pr := pendingReq{bytes: bytes}
	pr.pkt.CopyFrom(p)
	c.reorderBuf.put(p.RSN, pr)
	if c.cfg.Ordered {
		c.drainTargetOrdered()
	} else {
		c.processRequest(p.RSN)
	}
	return pdl.DeliverVerdict{Kind: pdl.DeliverAccept}
}

// drainTargetOrdered processes buffered requests in RSN order until a gap
// (or an RNR pause) stops it.
func (c *Conn) drainTargetOrdered() {
	for {
		if !c.reorderBuf.has(c.expectedRSN) {
			return
		}
		rsn := c.expectedRSN
		if !c.processRequest(rsn) {
			return // RNR: expectedRSN unchanged, retry will resume
		}
	}
}

// serveAdvance records terminal processing of an RSN at the target: it
// will never run again, and on ordered connections the in-order horizon
// moves past it.
func (c *Conn) serveAdvance(rsn uint64) {
	if c.probe != nil {
		c.probe.OnRequestServed(c, rsn)
	}
	if c.cfg.Ordered {
		c.expectedRSN = rsn + 1
		c.completedRSN = c.expectedRSN
	}
}

// processRequest runs the ULP handler for a buffered request. It returns
// false when the request hit RNR and must be retried by the initiator.
func (c *Conn) processRequest(rsn uint64) bool {
	// The dequeued request lands in a per-connection scratch slot rather
	// than a local: handlers receive &req.pkt, and a local would escape to
	// the heap on every delivery. The scratch is only live across the
	// synchronous handler call below — nothing in that call graph can
	// re-enter processRequest on this connection (requests only arrive
	// via scheduled HandlePacket events).
	c.reqScratch, _ = c.reorderBuf.del(rsn)
	req := &c.reqScratch
	p := &req.pkt
	defer c.res.Release(PoolRxReq, c.id, req.bytes)

	if c.target == nil {
		// No ULP attached: treat as a sink (pure delivery benchmark).
		c.Stats.RequestsServed++
		c.serveAdvance(rsn)
		return true
	}

	switch p.Type {
	case wire.TypePushData:
		v := c.target.HandlePush(rsn, p)
		switch v.Kind {
		case TargetRNR:
			c.ctrl.SendExceptionNack(p.Space, p.PSN, rsn, wire.NackRNR, v.RetryDelay)
			return false
		case TargetError:
			c.ctrl.SendExceptionNack(p.Space, p.PSN, rsn, wire.NackCIE, 0)
			c.serveAdvance(rsn)
			return true
		default:
			c.Stats.RequestsServed++
			c.serveAdvance(rsn)
			return true
		}
	case wire.TypePullRequest:
		data, length, v := c.target.HandlePull(rsn, p)
		switch v.Kind {
		case TargetRNR:
			c.ctrl.SendExceptionNack(p.Space, p.PSN, rsn, wire.NackRNR, v.RetryDelay)
			return false
		case TargetError:
			c.ctrl.SendExceptionNack(p.Space, p.PSN, rsn, wire.NackCIE, 0)
			c.serveAdvance(rsn)
			return true
		case TargetAsync:
			// Response produced later via CompletePull.
			c.Stats.RequestsServed++
			c.serveAdvance(rsn)
			return true
		default:
			c.Stats.RequestsServed++
			c.serveAdvance(rsn)
			c.sendPullResponse(rsn, data, length)
			return true
		}
	default:
		c.serveAdvance(rsn)
		return true
	}
}

// sendPullResponse transmits (or defers, under TxResp pressure) the
// response carrying the pulled data.
func (c *Conn) sendPullResponse(rsn uint64, data []byte, length uint32) {
	resp := c.pool.Acquire()
	resp.Type = wire.TypePullResponse
	resp.RSN = rsn
	resp.Length = length
	resp.Data = data
	if err := c.res.Reserve(PoolTxResp, c.id, int(length)); err != nil {
		// Defer until resources free up; the initiator's RTO/TLP keeps
		// the transaction alive meanwhile.
		c.pendingResponses.push(resp)
		c.updateNeedy()
		return
	}
	c.sentRespBytes.put(rsn, int(length))
	c.ctrl.SendPacket(resp)
}

func (c *Conn) drainPendingResponses() {
	for c.pendingResponses.len() > 0 {
		resp := c.pendingResponses.peek()
		if err := c.res.Reserve(PoolTxResp, c.id, int(resp.Length)); err != nil {
			return
		}
		c.pendingResponses.pop()
		c.updateNeedy()
		c.sentRespBytes.put(resp.RSN, int(resp.Length))
		c.ctrl.SendPacket(resp)
	}
}

// CompletePull sends the deferred response for a pull the target handler
// answered with TargetAsync.
func (c *Conn) CompletePull(rsn uint64, data []byte, length uint32) {
	c.sendPullResponse(rsn, data, length)
}

// deliverResponse is the initiator-side pull-response path.
func (c *Conn) deliverResponse(p *wire.Packet) {
	t, ok := c.txns.get(p.RSN)
	if !ok || t.kind != txnPull || t.finished {
		return // duplicate or stale
	}
	t.finished = true
	t.respData = p.Data
	c.tryRelease()
}

// PacketAcked is the PDL's upcall when a transmitted packet is
// acknowledged: TX resources are released (§4.5) and unordered pushes
// complete.
func (c *Conn) PacketAcked(space wire.Space, psn uint32, rsn uint64, typ wire.Type) {
	if space == wire.SpaceResponse {
		// A pull response we sent as target was delivered.
		if bytes, ok := c.sentRespBytes.del(rsn); ok {
			c.res.Release(PoolTxResp, c.id, bytes)
		}
		return
	}
	// Release the request's TX reservation regardless of transaction
	// state: the completion horizon can finish a transaction before its
	// per-packet ACK lands.
	if bytes, ok := c.reqReservations.del(rsn); ok {
		c.res.Release(PoolTxReq, c.id, bytes)
	}
	t, ok := c.txns.get(rsn)
	if !ok || t.pktAcked {
		return
	}
	t.pktAcked = true
	if t.kind == txnPush && !c.cfg.Ordered && !t.finished && !t.retrying {
		// Unordered push: responsibility transferred on ack. RNR-retrying
		// transactions are excluded — their "ack" only freed the refused
		// packet's context; the retry carries the responsibility.
		t.finished = true
	}
	c.tryRelease()
}

// Completed is the PDL's upcall for the ACK-carried completion horizon:
// all request RSNs below completedRSN are done at the target (ordered
// connections, Figure 5).
func (c *Conn) Completed(completedRSN uint64) {
	if !c.cfg.Ordered {
		return
	}
	// Bounded horizon walk: everything below completedApplied was
	// flagged by an earlier call (new transactions always receive RSNs
	// at or above any applied horizon), everything below releaseRSN has
	// left the table, and nothing at or above nextRSN exists yet.
	hi := completedRSN
	if c.nextRSN < hi {
		hi = c.nextRSN
	}
	lo := c.completedApplied
	if c.releaseRSN > lo {
		lo = c.releaseRSN
	}
	for rsn := lo; rsn < hi; rsn++ {
		if t, ok := c.txns.get(rsn); ok && t.kind == txnPush && !t.finished {
			t.finished = true
		}
	}
	if hi > c.completedApplied {
		c.completedApplied = hi
	}
	c.tryRelease()
}

// rnrRetryEvent retries a transaction after an RNR delay (or a local
// reserve failure). It re-looks the transaction up by RSN at fire time:
// RSNs are never reused, so a lookup miss means the transaction was
// released meanwhile — exactly the case the released guard in
// retryTransaction covered when the event captured the pointer directly
// (and a pointer capture would now be unsound anyway: released contexts
// recycle through the free list under fresh RSNs). Fired events recycle
// through the connection's free list too.
type rnrRetryEvent struct {
	c    *Conn
	rsn  uint64
	next *rnrRetryEvent
}

func (e *rnrRetryEvent) RunAction() {
	c, rsn := e.c, e.rsn
	e.c = nil
	e.next = c.rnrEvents
	c.rnrEvents = e
	if t, ok := c.txns.get(rsn); ok {
		c.retryTransaction(t)
	}
}

// scheduleRetry arms a pooled retry event for rsn after d.
func (c *Conn) scheduleRetry(rsn uint64, d time.Duration) {
	e := c.rnrEvents
	if e == nil {
		e = &rnrRetryEvent{}
	} else {
		c.rnrEvents = e.next
	}
	e.c, e.rsn, e.next = c, rsn, nil
	c.sim.AtAction(c.sim.Now().Add(d), e)
}

// NackReceived is the PDL's upcall for RNR/CIE exception NACKs.
func (c *Conn) NackReceived(p *wire.Packet) {
	t, ok := c.txns.get(p.RSN)
	if !ok || t.finished {
		return
	}
	switch p.NackCode {
	case wire.NackRNR:
		// Transparent retry after the target-specified delay (§4.4). The
		// retrying flag keeps the refused packet's PDL-level ack from
		// completing the transaction (unordered pushes complete on ack).
		t.retrying = true
		c.Stats.RNRRetries++
		c.scheduleRetry(t.rsn, time.Duration(p.RetryDelayNs))
	case wire.NackCIE:
		t.finished = true
		t.err = ErrCIE
		c.tryRelease()
	}
}

// retryTransaction re-reserves TX resources and resends a transaction
// (same RSN, fresh packet) after an RNR.
func (c *Conn) retryTransaction(t *txn) {
	if c.dead != nil || t.finished || t.released {
		return
	}
	bytes := len(t.data)
	if t.kind == txnPush {
		bytes = int(t.length)
	}
	if err := c.res.Reserve(PoolTxReq, c.id, bytes); err != nil {
		// Pool pressure: retry again shortly rather than dropping the
		// transaction.
		c.scheduleRetry(t.rsn, 50*time.Microsecond)
		return
	}
	t.pktAcked = false
	t.retrying = false
	c.sendRequest(t)
}

// Fail is the PDL's terminal-failure upcall: every pending transaction
// completes with err, every held resource is returned, and subsequent
// initiations are refused with ErrConnDead.
func (c *Conn) Fail(err error) {
	if c.dead != nil {
		return
	}
	if err == nil {
		err = ErrConnDead
	}
	c.dead = err
	c.updateNeedy()
	// Error all initiator-side transactions, bypassing ordered release.
	// Sorted so error completions reach the ULP in RSN order rather than
	// map-iteration order (determinism).
	for _, rsn := range c.txns.sorted() {
		t, ok := c.txns.get(rsn)
		if !ok || t.released {
			continue
		}
		t.finished = true
		if t.err == nil {
			t.err = err
		}
		c.release(t)
	}
	// Return TX reservations whose ACKs will never arrive. Release fires
	// Xon subscribers, so these loops also run in sorted RSN order.
	for _, rsn := range c.reqReservations.sorted() {
		bytes, _ := c.reqReservations.del(rsn)
		c.res.Release(PoolTxReq, c.id, bytes)
	}
	for _, rsn := range c.sentRespBytes.sorted() {
		bytes, _ := c.sentRespBytes.del(rsn)
		c.res.Release(PoolTxResp, c.id, bytes)
	}
	// Drop target-side reorder buffers (their RxReq reservations).
	for _, rsn := range c.reorderBuf.sorted() {
		pr, _ := c.reorderBuf.del(rsn)
		c.res.Release(PoolRxReq, c.id, pr.bytes)
	}
	// Deferred responses will never send; their packets go back to the
	// pool.
	for c.pendingResponses.len() > 0 {
		c.pool.Release(c.pendingResponses.pop())
	}
}

// Dead returns the terminal error, or nil while the connection is live.
func (c *Conn) Dead() error { return c.dead }

// tryRelease delivers finished transactions' completions to the ULP — in
// RSN order on ordered connections, immediately otherwise.
func (c *Conn) tryRelease() {
	if c.cfg.Ordered {
		for {
			t, ok := c.txns.get(c.releaseRSN)
			if !ok || !t.finished {
				return
			}
			c.release(t)
			c.releaseRSN++
		}
	}
	// Unordered completions are "immediate" but must still fire in a
	// deterministic order, fixed by a collection pass before any ULP
	// callback runs (completions can start new transactions mid-loop).
	// The scratch is detached while in use so a reentrant call cannot
	// clobber the list being walked.
	ready := c.readyScratch
	c.readyScratch = nil
	ready = ready[:0]
	for rsn := c.txns.lowBound(); rsn < c.txns.high; rsn++ {
		if t, ok := c.txns.get(rsn); ok && t.finished && !t.released {
			ready = append(ready, rsn)
		}
	}
	for _, rsn := range ready {
		if t, ok := c.txns.get(rsn); ok && !t.released {
			c.release(t)
		}
	}
	c.readyScratch = ready[:0]
}

func (c *Conn) release(t *txn) {
	if t.released {
		return
	}
	t.released = true
	respBytes := 0
	if t.kind == txnPull {
		respBytes = int(t.length)
	}
	c.res.Release(PoolRxResp, c.id, respBytes)
	c.txns.del(t.rsn)
	// The context recycles as soon as the table forgets it; the
	// completion fires from locals so a reentrant initiation inside the
	// ULP callback can reuse it safely.
	rsn, respData, terr, done := t.rsn, t.respData, t.err, t.done
	if terr != nil {
		c.Stats.CompletedError++
	} else {
		c.Stats.CompletedOK++
	}
	c.freeTxn(t)
	if c.probe != nil {
		c.probe.OnCompletion(c, rsn, terr)
	}
	if done != nil {
		done(respData, terr)
	}
}
