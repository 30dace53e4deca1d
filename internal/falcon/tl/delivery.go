package tl

import (
	"time"

	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/wire"
)

// Deliver is the PDL's upcall for arriving data packets. The TL performs
// resource admission here; ULP processing happens in RSN order on ordered
// connections, and only a request that arrives ahead of a gap waits in the
// reorder buffer.
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
	if c.reorderBuf.Has(p.RSN) {
		return pdl.DeliverVerdict{Kind: pdl.DeliverAccept}
	}

	hol := !c.cfg.Ordered || p.RSN == c.expectedRSN
	if err := c.admitRxRequest(int(p.Length), hol); err != nil {
		return pdl.DeliverVerdict{Kind: pdl.DeliverNoResources}
	}

	if hol {
		// Served straight from the wire packet, then any buffered
		// successors it unblocked.
		if c.serve(p) && c.cfg.Ordered {
			c.drainTargetOrdered()
		}
		return pdl.DeliverVerdict{Kind: pdl.DeliverAccept}
	}
	// Ahead of a gap: take a hold of our own, because the receive path
	// drops its hold as soon as this upcall returns. The held packet is
	// read-only (the sender's PDL may still hold it too).
	held := c.pool.Share(p)
	c.reorderBuf.Put(p.RSN, held)
	return pdl.DeliverVerdict{Kind: pdl.DeliverAccept}
}

// drainTargetOrdered serves buffered requests in RSN order until a gap
// (or an RNR pause) stops it. Each held packet goes back to the pool once
// served, whether the serve succeeds or hits RNR.
func (c *Conn) drainTargetOrdered() {
	for c.reorderBuf.Has(c.expectedRSN) {
		held, _ := c.reorderBuf.Del(c.expectedRSN)
		served := c.serve(held)
		c.pool.Release(held)
		if !served {
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
	}
}

// serve runs the ULP handler for an admitted request, then releases the
// request's RxReq reservation (p.Length bytes, as admitted). p is only read
// during the call. It returns false when the request hit RNR and must be
// retried by the initiator.
func (c *Conn) serve(p *wire.Packet) bool {
	rsn := p.RSN
	defer c.unreserve(PoolRxReq, int(p.Length))

	if c.target == nil {
		// No ULP attached: treat as a sink (pure delivery benchmark).
		c.Stats.RequestsServed++
		c.serveAdvance(rsn)
		return true
	}

	var (
		v      TargetVerdict
		data   []byte
		length uint32
	)
	switch p.Type {
	case wire.TypePushData:
		v = c.target.HandlePush(rsn, p)
	case wire.TypePullRequest:
		data, length, v = c.target.HandlePull(rsn, p)
	default:
		c.serveAdvance(rsn)
		return true
	}
	switch v.Kind {
	case TargetRNR:
		c.ctrl.SendExceptionNack(p.Space, p.PSN, rsn, wire.NackRNR, v.RetryDelay)
		return false
	case TargetError:
		c.ctrl.SendExceptionNack(p.Space, p.PSN, rsn, wire.NackCIE, 0)
		c.serveAdvance(rsn)
		return true
	}
	c.Stats.RequestsServed++
	c.serveAdvance(rsn)
	// A TargetAsync pull's response comes later, through CompletePull.
	if p.Type == wire.TypePullRequest && v.Kind != TargetAsync {
		c.sendPullResponse(rsn, data, length)
	}
	return true
}

// sendPullResponse transmits (or defers, under TxResp pressure) the
// response carrying the pulled data.
func (c *Conn) sendPullResponse(rsn uint64, data []byte, length uint32) {
	resp := c.pool.Acquire()
	resp.Type = wire.TypePullResponse
	resp.RSN = rsn
	resp.Length = length
	resp.Data = data
	if err := c.reserve(PoolTxResp, int(length)); err != nil {
		// Defer until resources free up; the initiator's RTO/TLP keeps
		// the transaction alive meanwhile.
		c.pendingResponses.Push(resp)
		c.res.enqueue(c)
		return
	}
	c.sentRespBytes.Put(rsn, int32(length))
	c.ctrl.SendPacket(resp)
}

func (c *Conn) drainPendingResponses() {
	for c.pendingResponses.Len() > 0 {
		resp := c.pendingResponses.Peek()
		if err := c.reserve(PoolTxResp, int(resp.Length)); err != nil {
			c.res.enqueue(c)
			return
		}
		c.pendingResponses.Pop()
		c.sentRespBytes.Put(resp.RSN, int32(resp.Length))
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
	t, ok := c.txns.Get(p.RSN)
	if !ok || t.kind != txnPull || t.finished {
		return // duplicate or stale
	}
	t.respData = p.Data
	c.finish(t)
}

// PacketAcked is the PDL's upcall when a transmitted packet is
// acknowledged: TX resources are released (§4.5) and unordered pushes
// complete.
func (c *Conn) PacketAcked(space wire.Space, psn uint32, rsn uint64, typ wire.Type) {
	if space == wire.SpaceResponse {
		// A pull response we sent as target was delivered.
		if bytes, ok := c.sentRespBytes.Del(rsn); ok {
			c.unreserve(PoolTxResp, int(bytes))
		}
		return
	}
	// Release the request's TX reservation regardless of transaction
	// state: the completion horizon can finish a transaction before its
	// per-packet ACK lands.
	if bytes, ok := c.reqReservations.Del(rsn); ok {
		c.unreserve(PoolTxReq, int(bytes))
	}
	if c.cfg.Ordered {
		return // ordered transactions finish on the completion horizon
	}
	// Unordered push: responsibility transferred on ack. RNR-retrying
	// transactions are excluded — their "ack" only freed the refused
	// packet's context; the retry carries the responsibility.
	if t, ok := c.txns.Get(rsn); ok && t.kind == txnPush && !t.finished && !t.retrying {
		c.finish(t)
	}
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
		if t, ok := c.txns.Get(rsn); ok && t.kind == txnPush && !t.finished {
			t.finished = true
		}
	}
	if hi > c.completedApplied {
		c.completedApplied = hi
	}
	c.releaseInOrder()
}

// rnrRetryEvent retries a transaction after an RNR delay (or a local
// reserve failure). It re-looks the transaction up by RSN at fire time:
// RSNs are never reused, so a lookup miss means the transaction was
// released meanwhile (a pointer capture would be unsound: released
// contexts recycle through the free list under fresh RSNs). Fired events
// recycle through the connection's free list too.
type rnrRetryEvent struct {
	c   *Conn
	rsn uint64
}

func (e *rnrRetryEvent) RunAction() {
	c, rsn := e.c, e.rsn
	e.c = nil
	c.rnrEvents.Put(e)
	if t, ok := c.txns.Get(rsn); ok {
		c.retryTransaction(t)
	}
}

// scheduleRetry arms a pooled retry event for rsn after d.
func (c *Conn) scheduleRetry(rsn uint64, d time.Duration) {
	e := c.rnrEvents.Get()
	e.c, e.rsn = c, rsn
	c.sim.AtAction(c.sim.Now().Add(d), e)
}

// NackReceived is the PDL's upcall for RNR/CIE exception NACKs.
func (c *Conn) NackReceived(p *wire.Packet) {
	t, ok := c.txns.Get(p.RSN)
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
		t.err = ErrCIE
		c.finish(t)
	}
}

// retryTransaction re-reserves TX resources and resends a transaction
// (same RSN, fresh packet) after an RNR.
func (c *Conn) retryTransaction(t *txn) {
	if c.dead != nil || t.finished {
		return
	}
	bytes := len(t.data)
	if t.kind == txnPush {
		bytes = int(t.length)
	}
	if err := c.reserve(PoolTxReq, bytes); err != nil {
		// Pool pressure: retry again shortly rather than dropping the
		// transaction.
		c.scheduleRetry(t.rsn, 50*time.Microsecond)
		return
	}
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
	// A dead connection leaves the waiters now, not when a release walks
	// past it: on a crashed node none may come, and the queue would keep
	// the connection, and through its ctrl its PDL and endpoint, reachable.
	if c.queued {
		c.res.dequeue(c)
	}
	// Error all initiator-side transactions, bypassing ordered release.
	// Sorted so error completions reach the ULP in RSN order rather than
	// map-iteration order (determinism).
	for _, rsn := range c.txns.Sorted() {
		t, ok := c.txns.Get(rsn)
		if !ok {
			continue
		}
		if t.err == nil {
			t.err = err
		}
		c.release(t)
	}
	// Return TX reservations whose ACKs will never arrive. A release wakes
	// waiting connections, so these loops also run in sorted RSN order.
	for _, rsn := range c.reqReservations.Sorted() {
		bytes, _ := c.reqReservations.Del(rsn)
		c.unreserve(PoolTxReq, int(bytes))
	}
	for _, rsn := range c.sentRespBytes.Sorted() {
		bytes, _ := c.sentRespBytes.Del(rsn)
		c.unreserve(PoolTxResp, int(bytes))
	}
	// Drop target-side reorder buffers: their RxReq reservations, then
	// their held packets.
	for _, rsn := range c.reorderBuf.Sorted() {
		held, _ := c.reorderBuf.Del(rsn)
		c.unreserve(PoolRxReq, int(held.Length))
		c.pool.Release(held)
	}
	// Deferred responses will never send; their packets go back to the
	// pool.
	for c.pendingResponses.Len() > 0 {
		c.pool.Release(c.pendingResponses.Pop())
	}
	// Parked work waits for an Xon edge that a dead connection would never
	// send: resume it once, after this teardown, so it sees Dead and ends.
	if c.wasXoff {
		c.sim.After(0, c.resumeParked)
	}
	if c.onDead != nil {
		c.onDead(err)
	}
}

// Dead returns the terminal error, or nil while the connection is live.
func (c *Conn) Dead() error { return c.dead }

// finish records t's outcome and releases what that completes: t itself
// on an unordered connection, the in-order run from releaseRSN on an
// ordered one.
func (c *Conn) finish(t *txn) {
	t.finished = true
	if c.cfg.Ordered {
		c.releaseInOrder()
		return
	}
	c.release(t)
}

// releaseInOrder delivers the finished transactions from releaseRSN up to
// the first unfinished one, in RSN order.
func (c *Conn) releaseInOrder() {
	for {
		t, ok := c.txns.Get(c.releaseRSN)
		if !ok || !t.finished {
			return
		}
		c.release(t)
		c.releaseRSN++
	}
}

// release delivers t's completion to the ULP and recycles its context.
func (c *Conn) release(t *txn) {
	respBytes := 0
	if t.kind == txnPull {
		respBytes = int(t.length)
	}
	c.unreserve(PoolRxResp, respBytes)
	c.txns.Del(t.rsn)
	// The context recycles as soon as the table forgets it; the
	// completion fires from locals so a reentrant initiation inside the
	// ULP callback can reuse it safely.
	rsn, respData, terr, done := t.rsn, t.respData, t.err, t.done
	if terr != nil {
		c.Stats.CompletedError++
	} else {
		c.Stats.CompletedOK++
	}
	c.res.freeTxn(t)
	if c.probe != nil {
		c.probe.OnCompletion(c, rsn, terr)
	}
	if done != nil {
		done.Complete(respData, terr)
	}
}
