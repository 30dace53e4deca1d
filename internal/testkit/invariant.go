package testkit

import (
	"fmt"
	"math"
	"strings"

	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// Checker is the protocol invariant checker. Attached as a pdl.Probe and
// tl.Probe, it re-validates the state machines after every observable
// event:
//
//   - cwnd enforcement: a newly transmitted packet never pushes the
//     connection's in-flight count (outstanding minus resource-NACK
//     parked) past min(Σ fcwnd, ncwnd) for request-space packets, or
//     Σ fcwnd for response-space packets (fractional windows admit
//     exactly one in-flight packet).
//   - TX window bounds: next−base ≤ wire.BitmapBits, and the scoreboard is
//     coherent (pdl.Conn.CheckScoreboard): no PSN both acked and parked,
//     no bitmap bit past the window, per-flow counts that sum to the
//     outstanding total, and each slot holding the packet it should.
//   - RX bitmap/base consistency: bit 0 of the RX bitmap is always clear
//     after event processing — a set bit 0 means the cumulative base
//     failed to advance over a received packet.
//   - Monotone cumulative ACK: neither the RX base nor the TX base of
//     either sequence space ever moves backwards.
//   - Exactly-once ULP interaction: a target serves each RSN terminally
//     at most once (and in RSN order on ordered connections); an
//     initiator releases each RSN's completion at most once (in RSN
//     order on ordered connections).
//   - Scheduler order (attached as a sim.Observer): deliveries are
//     strictly increasing in (time, seq), the order a binary heap over the
//     pending set pops them.
//   - Lazy timers: at every delivery, each watched connection's RTO, TLP
//     and RACK deadlines are not yet past and have their event pending at
//     or before them (pdl.Conn.CheckTimers).
//
// A violation calls FailFunc with a full context dump; the default
// FailFunc panics, so a violated invariant can never be silently ignored.
// The zero value is not usable; construct with NewChecker.
type Checker struct {
	// FailFunc handles invariant violations. nil panics. Sweep tests
	// that expect violations (the harness self-test) install one that
	// collects them.
	FailFunc func(format string, args ...any)

	// StrictOutstanding, when positive, additionally bounds the total
	// outstanding packet count of every connection. It exists to prove
	// the harness detects violations: setting it below the real window
	// makes any healthy run trip the checker (see the self-test).
	StrictOutstanding int

	// Checks counts individual invariant evaluations (diagnostics).
	Checks uint64
	// Violations counts violations observed (only visible when FailFunc
	// does not panic).
	Violations uint64
	// Events counts the scheduler deliveries checked by OnEvent.
	Events uint64

	pdlConns map[*pdl.Conn]*pdlTrack
	tlConns  map[*tl.Conn]*tlTrack

	// timed lists the connections whose timers OnEvent checks; lastAt and
	// lastSeq are the previous delivery.
	timed   []*pdl.Conn
	lastAt  sim.Time
	lastSeq uint64
}

// pdlTrack is the checker's shadow state for one PDL connection.
type pdlTrack struct {
	rxBase [wire.NumSpaces]uint32
	txBase [wire.NumSpaces]uint32
}

// tlTrack is the checker's shadow state for one TL connection.
type tlTrack struct {
	served     map[uint64]bool
	servedSeq  uint64 // next RSN expected to be served (ordered conns)
	completed  map[uint64]bool
	releaseSeq uint64 // next RSN expected to complete (ordered conns)
}

// NewChecker returns a checker whose FailFunc panics.
func NewChecker() *Checker {
	return &Checker{
		pdlConns: make(map[*pdl.Conn]*pdlTrack),
		tlConns:  make(map[*tl.Conn]*tlTrack),
	}
}

// Failf reports an externally detected violation (e.g. the sweep runner's
// post-run quiescence checks) through the checker's failure path, so tests
// that install a FailFunc capture it the same way as probe violations.
func (k *Checker) Failf(format string, args ...any) { k.fail(format, args...) }

func (k *Checker) fail(format string, args ...any) {
	k.Violations++
	if k.FailFunc != nil {
		k.FailFunc(format, args...)
		return
	}
	panic(fmt.Sprintf("testkit: invariant violation: "+format, args...))
}

func (k *Checker) pdlTrackFor(c *pdl.Conn) *pdlTrack {
	t, ok := k.pdlConns[c]
	if !ok {
		t = &pdlTrack{}
		k.pdlConns[c] = t
	}
	return t
}

func (k *Checker) tlTrackFor(c *tl.Conn) *tlTrack {
	t, ok := k.tlConns[c]
	if !ok {
		t = &tlTrack{served: make(map[uint64]bool), completed: make(map[uint64]bool)}
		k.tlConns[c] = t
	}
	return t
}

// WatchTimers adds connections whose lazy timers OnEvent checks.
func (k *Checker) WatchTimers(cs ...*pdl.Conn) { k.timed = append(k.timed, cs...) }

// OnEvent implements sim.Observer. A heap pops the least pending (time,
// seq), and every later schedule has a time no earlier than now and a
// larger seq, so the heap's stream is strictly increasing; a stream that
// is strictly increasing cannot have delivered an event ahead of a smaller
// one that was then delivered too. Before the event's body runs, every
// watched connection's timers must hold the lazy discipline.
func (k *Checker) OnEvent(at sim.Time, seq uint64) {
	if k.Events > 0 && (at < k.lastAt || at == k.lastAt && seq <= k.lastSeq) {
		k.fail("scheduler delivered (%v, %d) after (%v, %d): not (time, seq) order",
			at, seq, k.lastAt, k.lastSeq)
	}
	k.Events++
	k.lastAt, k.lastSeq = at, seq
	for _, c := range k.timed {
		if msg := c.CheckTimers(); msg != "" {
			k.fail("lazy timer discipline broken at %v: %s\n%s", at, msg, DumpConn(c))
		}
	}
}

// OnSend implements pdl.Probe: after every data transmission the TX
// windows must be self-consistent, and a *new* transmission must respect
// the congestion windows the scheduler claims to enforce.
func (k *Checker) OnSend(c *pdl.Conn, p *wire.Packet, retransmit bool) {
	k.Checks++
	k.checkTxWindows(c, "send")

	if retransmit {
		return // retransmissions reuse their slot; no window admission
	}
	_, _, outReq := c.TxState(wire.SpaceRequest)
	_, _, outResp := c.TxState(wire.SpaceResponse)
	// The scheduler's window counts in-flight packets: outstanding minus
	// those parked on a resource-NACK backoff (explicitly refused by the
	// peer, so known off the network).
	total := outReq + outResp - c.Parked()
	limit := c.Fcwnd()
	if p.Space == wire.SpaceRequest && c.Ncwnd() < limit {
		limit = c.Ncwnd()
	}
	// canSendData admitted the packet with total-1 < limit; post-increment
	// the bound is ceil(limit), with a floor of one packet for fractional
	// (paced) windows.
	allowed := int(math.Ceil(limit))
	if allowed < 1 {
		allowed = 1
	}
	if total > allowed {
		k.fail("cwnd violation on %v send: outstanding %d > allowed %d (fcwnd=%.3f ncwnd=%.3f)\n%s",
			p.Space, total, allowed, c.Fcwnd(), c.Ncwnd(), DumpConn(c))
	}
	if k.StrictOutstanding > 0 && total > k.StrictOutstanding {
		k.fail("strict outstanding bound: %d > %d\n%s", total, k.StrictOutstanding, DumpConn(c))
	}
}

// OnReceive implements pdl.Probe: after every arriving packet is
// processed, windows must be in bounds, bases monotone, and the RX bitmap
// consistent with its base.
func (k *Checker) OnReceive(c *pdl.Conn, p *wire.Packet) {
	k.Checks++
	t := k.pdlTrackFor(c)
	k.checkTxWindows(c, "receive")
	for _, space := range []wire.Space{wire.SpaceRequest, wire.SpaceResponse} {
		base, bitmap := c.RxState(space)
		if bitmap.Get(0) {
			k.fail("rx bitmap/base inconsistency in %v space: bit 0 set at base %d (base must advance over received packets)\n%s",
				space, base, DumpConn(c))
		}
		if int32(base-t.rxBase[space]) < 0 {
			k.fail("rx base moved backwards in %v space: %d -> %d\n%s",
				space, t.rxBase[space], base, DumpConn(c))
		}
		t.rxBase[space] = base

		txBase, _, _ := c.TxState(space)
		if int32(txBase-t.txBase[space]) < 0 {
			k.fail("tx base moved backwards in %v space: %d -> %d (cumulative ACK must be monotone)\n%s",
				space, t.txBase[space], txBase, DumpConn(c))
		}
		t.txBase[space] = txBase
	}
}

// checkTxWindows validates both TX sequence spaces' structural invariants.
func (k *Checker) checkTxWindows(c *pdl.Conn, when string) {
	for _, space := range []wire.Space{wire.SpaceRequest, wire.SpaceResponse} {
		base, next, _ := c.TxState(space)
		if span := next - base; span > wire.BitmapBits {
			k.fail("tx window overflow on %s in %v space: next-base = %d > %d\n%s",
				when, space, span, wire.BitmapBits, DumpConn(c))
		}
	}
	if msg := c.CheckScoreboard(); msg != "" {
		k.fail("tx scoreboard inconsistent on %s: %s\n%s", when, msg, DumpConn(c))
	}
}

// OnRequestServed implements tl.Probe: exactly-once (and, on ordered
// connections, in-order) terminal processing of each request RSN.
func (k *Checker) OnRequestServed(c *tl.Conn, rsn uint64) {
	k.Checks++
	t := k.tlTrackFor(c)
	if t.served[rsn] {
		k.fail("target served RSN %d twice on conn %d", rsn, c.ID())
		return
	}
	t.served[rsn] = true
	if c.Ordered() {
		if rsn != t.servedSeq {
			k.fail("ordered target served RSN %d out of order on conn %d (expected %d)",
				rsn, c.ID(), t.servedSeq)
		}
		t.servedSeq = rsn + 1
	}
}

// OnCompletion implements tl.Probe: exactly-once (and, on ordered
// connections, in-order) completion release per RSN.
func (k *Checker) OnCompletion(c *tl.Conn, rsn uint64, err error) {
	k.Checks++
	t := k.tlTrackFor(c)
	if t.completed[rsn] {
		k.fail("duplicate ULP completion for RSN %d on conn %d", rsn, c.ID())
		return
	}
	t.completed[rsn] = true
	if c.Ordered() {
		if rsn != t.releaseSeq {
			k.fail("ordered completion for RSN %d out of order on conn %d (expected %d)",
				rsn, c.ID(), t.releaseSeq)
		}
		t.releaseSeq = rsn + 1
	}
}

// ServedCount returns how many distinct RSNs the checker has seen served
// on the connection.
func (k *Checker) ServedCount(c *tl.Conn) int {
	if t, ok := k.tlConns[c]; ok {
		return len(t.served)
	}
	return 0
}

// CompletedCount returns how many distinct RSNs have completed on the
// connection.
func (k *Checker) CompletedCount(c *tl.Conn) int {
	if t, ok := k.tlConns[c]; ok {
		return len(t.completed)
	}
	return 0
}

// DumpConn renders a PDL connection's full observable state — the context
// dump attached to every invariant violation.
func DumpConn(c *pdl.Conn) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "conn %d: fcwnd=%.3f ncwnd=%.3f effective=%.3f srtt=%v queued=%d parked=%d\n",
		c.ID(), c.Fcwnd(), c.Ncwnd(), c.EffectiveWindow(), c.SRTT(), c.QueuedPackets(), c.Parked())
	for _, space := range []wire.Space{wire.SpaceRequest, wire.SpaceResponse} {
		txBase, txNext, out := c.TxState(space)
		rxBase, bitmap := c.RxState(space)
		fmt.Fprintf(&sb, "  %v tx: base=%d next=%d outstanding=%d | rx: base=%d bitmap=%v\n",
			space, txBase, txNext, out, rxBase, bitmap)
	}
	st := c.Stats
	fmt.Fprintf(&sb, "  stats: sent=%d retx=%d tlp=%d rto=%d acksTx=%d acksRx=%d dup=%d nacksTx=%d nacksRx=%d delivered=%d windowDrops=%d",
		st.DataSent, st.DataRetransmits, st.TLPProbes, st.RTOs, st.AcksSent, st.AcksReceived,
		st.Duplicates, st.NacksSent, st.NacksReceived, st.DeliveredToTL, st.RxWindowDrops)
	return sb.String()
}
