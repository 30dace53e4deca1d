// Package pdl implements Falcon's Packet Delivery Layer (§4.1–§4.3): the
// per-connection hardware pipeline that provides reliable packet delivery
// over a lossy, reordering, multipath fabric.
//
// Responsibilities, mirroring the paper:
//
//   - Reliability: per-space sliding TX windows, a 128-bit RX bitmap
//     piggybacked on ACKs (SACK), RACK-TLP loss detection per flow, and an
//     RTO fallback. An OOO-distance heuristic is included as the ablation
//     baseline of Figure 11b.
//   - Congestion control enforcement: the PDL measures per-packet delay via
//     the four hardware timestamps, forwards signals to the FAE, and
//     enforces the returned windows — requests against min(fcwnd, ncwnd),
//     Pull Responses against fcwnd only (the requester pre-reserved RX
//     resources, §4.4).
//   - Multipathing: an indexed list of flows per connection; each packet is
//     mapped to the flow with the largest open congestion window and carries
//     that flow's label (§4.3).
//
// The PDL is transport mechanism only: all parameter computation (Swift,
// RACK/TLP timeouts, repathing, α_c) lives in the FAE.
//
// A connection calls up — to the NIC for egress, to the TL, to the FAE —
// through one Upper value, which internal/core implements per endpoint with
// methods; Callbacks adapts functions to it for drivers and tests.
//
// # Hot-path layout (DESIGN.md §11)
//
// The per-packet send/ack path is steady-state allocation-free: tracked
// packets live in by-value scoreboard slots, the acked/parked sets live
// only in 128-bit bitmaps scanned a word at a time, wire packets are
// recycled through a wire.PacketPool, and every timer is a pooled typed
// event (sim.Action) re-armed lazily (timers.go). The per-PSN loops the
// word scans replaced survive as the reference model in scan_model_test.go.
package pdl

import (
	"fmt"
	"time"

	"falcon/internal/falcon/fae"
	"falcon/internal/falcon/ring"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// RecoveryMode selects the sender's loss-detection heuristic.
type RecoveryMode int

const (
	// RecoveryRackTLP is production Falcon: time-based RACK with tail
	// loss probes (§4.1).
	RecoveryRackTLP RecoveryMode = iota
	// RecoveryOOODistance is the 200G-Falcon initial scheme: a packet is
	// eligible for retransmission when a packet with PSN at least
	// OOODistance higher has been SACKed (FACK-style; Figure 11b).
	RecoveryOOODistance
)

func (m RecoveryMode) String() string {
	if m == RecoveryOOODistance {
		return "ooo-distance"
	}
	return "rack-tlp"
}

// PathPolicy selects how packets map to multipath flows (Figure 17).
type PathPolicy int

const (
	// PolicyCongestionAware picks the flow with the largest open window.
	PolicyCongestionAware PathPolicy = iota
	// PolicyRoundRobin sprays packets across flows obliviously.
	PolicyRoundRobin
)

func (p PathPolicy) String() string {
	if p == PolicyRoundRobin {
		return "round-robin"
	}
	return "congestion-aware"
}

// Config parameterizes a PDL connection.
type Config struct {
	// WindowSize is the per-space limit on outstanding PSNs; it matches
	// the 128-bit ACK bitmap so the receiver can always describe the
	// sender's outstanding range.
	WindowSize int
	// NumFlows is the number of multipath flows (1 = single path).
	NumFlows int
	// Policy selects the packet-to-flow mapping.
	Policy PathPolicy
	// Recovery selects the loss-detection heuristic.
	Recovery RecoveryMode
	// OOODistance is the FACK threshold for RecoveryOOODistance.
	OOODistance int
	// AckCoalesceCount triggers an ACK after this many data packets
	// arrive for one flow.
	AckCoalesceCount int
	// ARInterval sets the AckReq bit every N-th data packet of a flow so
	// the sender keeps RTT samples flowing on long transfers.
	ARInterval int

	// MaxConsecutiveRTOs is the retry budget: a connection that times
	// out this many times without any ACK progress is declared failed
	// (Upper.Fail is called once) rather than retrying forever.
	// Zero disables the budget (retry forever).
	MaxConsecutiveRTOs int
}

// DefaultConfig returns the settings used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		WindowSize:         wire.BitmapBits,
		NumFlows:           4,
		Policy:             PolicyCongestionAware,
		Recovery:           RecoveryRackTLP,
		OOODistance:        3,
		AckCoalesceCount:   2,
		ARInterval:         8,
		MaxConsecutiveRTOs: 12,
	}
}

// The PDL's fixed timer parameters.
const (
	// ackCoalesceDelay bounds ACK latency when AckCoalesceCount is not
	// reached.
	ackCoalesceDelay = 5 * time.Microsecond
	// initialRTO seeds timers before the FAE provides measurements.
	initialRTO = 200 * time.Microsecond
	// maxRTOBackoff caps exponential RTO backoff (and the pacing gap).
	maxRTOBackoff = 20 * time.Millisecond
)

// DeliverVerdictKind is the TL's synchronous answer to a delivered packet.
type DeliverVerdictKind int

const (
	// DeliverAccept: packet accepted; it will be ACKed.
	DeliverAccept DeliverVerdictKind = iota
	// DeliverNoResources: TL has no RX resources; the PDL replies with a
	// resource NACK and the packet is not recorded as received.
	DeliverNoResources
	// DeliverRNR: the target ULP is not ready; the PDL replies with an
	// RNR NACK carrying RetryDelay. The packet is recorded as received
	// at the PDL level (the transaction retry is TL business).
	DeliverRNR
	// DeliverCIE: the target ULP failed the transaction; a CIE NACK
	// completes it in error at the initiator. Recorded as received.
	DeliverCIE
)

// DeliverVerdict is returned by Upper.DeliverData.
type DeliverVerdict struct {
	Kind       DeliverVerdictKind
	RetryDelay time.Duration // RNR retry hint
}

// Upper is what a connection's PDL calls up into: its NIC, TL and FAE.
type Upper interface {
	// Transmit sends a packet onto the fabric (via the NIC model). The
	// caller keeps its hold: an implementation that retains the packet
	// past the call must take a hold of its own with
	// wire.PacketPool.Share, and must not write to it (ACK/NACK packets
	// are released when Transmit returns; data packets are unshared
	// before each retransmission is stamped).
	Transmit(p *wire.Packet)
	// DeliverData hands an arriving data packet to the transaction layer.
	DeliverData(p *wire.Packet) DeliverVerdict
	// Acked notifies the TL that a transmitted packet has been
	// acknowledged (TX resource release, unordered completions).
	Acked(space wire.Space, psn uint32, rsn uint64, typ wire.Type)
	// AdvanceHorizon advances the initiator's ordered completion horizon:
	// all transactions with RSN < completedRSN are done at the target.
	AdvanceHorizon(completedRSN uint64)
	// Nacked passes RNR/CIE NACKs up to the TL.
	Nacked(p *wire.Packet)
	// Fail reports a terminal connection failure (RTO budget exhausted);
	// the TL errors all pending transactions.
	Fail(err error)
	// Post posts a congestion/loss event to the FAE.
	Post(ev fae.Event)
	// RxOccupancy samples the NIC RX buffer occupancy (0..1) when
	// building an ACK.
	RxOccupancy() float64
	// Horizon samples the TL's cumulative completed RSN when building an
	// ACK (zero if the connection is unordered).
	Horizon() uint64
}

// Callbacks adapts functions to Upper, one field per method, in the
// method order: Transmit calls Send, DeliverData Deliver, Acked
// PacketAcked, and so on. Send and Deliver are required; a nil field of
// the others makes its method a no-op (zero for a sample).
type Callbacks struct {
	Send           func(p *wire.Packet)
	Deliver        func(p *wire.Packet) DeliverVerdict
	PacketAcked    func(space wire.Space, psn uint32, rsn uint64, typ wire.Type)
	Completed      func(completedRSN uint64)
	NackReceived   func(p *wire.Packet)
	Failed         func(err error)
	PostEvent      func(ev fae.Event)
	RxBufOccupancy func() float64
	CompletedRSN   func() uint64
}

func (cb Callbacks) Transmit(p *wire.Packet)                   { cb.Send(p) }
func (cb Callbacks) DeliverData(p *wire.Packet) DeliverVerdict { return cb.Deliver(p) }

func (cb Callbacks) Acked(space wire.Space, psn uint32, rsn uint64, typ wire.Type) {
	if cb.PacketAcked != nil {
		cb.PacketAcked(space, psn, rsn, typ)
	}
}

func (cb Callbacks) AdvanceHorizon(completedRSN uint64) {
	if cb.Completed != nil {
		cb.Completed(completedRSN)
	}
}

func (cb Callbacks) Nacked(p *wire.Packet) {
	if cb.NackReceived != nil {
		cb.NackReceived(p)
	}
}

func (cb Callbacks) Fail(err error) {
	if cb.Failed != nil {
		cb.Failed(err)
	}
}

func (cb Callbacks) Post(ev fae.Event) {
	if cb.PostEvent != nil {
		cb.PostEvent(ev)
	}
}

func (cb Callbacks) RxOccupancy() float64 {
	if cb.RxBufOccupancy == nil {
		return 0
	}
	return cb.RxBufOccupancy()
}

func (cb Callbacks) Horizon() uint64 {
	if cb.CompletedRSN == nil {
		return 0
	}
	return cb.CompletedRSN()
}

// Probe observes a connection's packet-level activity. It is the PDL's
// verification hook: internal/testkit registers invariant checkers and
// trace hashers through it. Both callbacks run synchronously after the
// connection's state has been updated, so a probe sees post-event state.
// The hook is compiled in but costs only a nil check when no probe is
// attached.
type Probe interface {
	// OnSend fires after a tracked data packet is (re)transmitted. p is
	// the live packet; probes must not mutate it.
	OnSend(c *Conn, p *wire.Packet, retransmit bool)
	// OnReceive fires after an arriving packet (data, ACK or NACK) has
	// been fully processed by the connection.
	OnReceive(c *Conn, p *wire.Packet)
}

// SetProbe attaches a verification probe (nil detaches).
func (c *Conn) SetProbe(p Probe) { c.probe = p }

// txPacket tracks one outstanding transmitted packet (the per-packet
// context of §5.2's hardware error handling). Slots are stored by value in
// the scoreboard ring and hold only what the packet does not: its PSN,
// RSN and type are read from pkt, which the slot keeps until the PSN is
// acknowledged, and whether it is acked or parked is a bit in txSpace. A
// slot is 24 bytes (TestScoreboardLayout).
//
// The ring grows while packets are in flight (txSpace.grow), which moves
// every live slot. So no *txPacket may be held across a call out of the
// PDL — Acked, Post, Transmit — because the callee can send, and a send
// can grow the ring: code that must outlive such a call carries the PSN
// (or a txRef) and re-resolves the slot afterwards.
type txPacket struct {
	pkt    *wire.Packet // nil once acknowledged
	txTime sim.Time
	retx   uint16 // retransmissions, saturating at its maximum
	flow   uint8  // below wire.MaxFlows
}

// txSpace is the sender side of one sequence space. Its two bitmaps are
// the only record of which sent PSNs are acked and which are parked, base-
// relative (bit i describes PSN base+i; WindowSize never exceeds
// wire.BitmapBits), so ACK processing and loss recovery scan the
// scoreboard a word at a time and the outstanding and parked totals are
// population counts.
type txSpace struct {
	space wire.Space
	next  uint32 // next PSN to assign
	base  uint32 // lowest unacked PSN
	// pkts is the scoreboard ring, indexed by psn & (len-1). It is empty
	// until the space's first send, starts at minRing slots (fewer when
	// WindowSize is smaller) and doubles whenever next-base reaches its
	// length, so it stays at the next power of two above the PSNs actually
	// in flight (never above WindowSize rounded up to a power of two).
	pkts []txPacket
	// acked marks the acknowledged PSNs in [base, next).
	acked wire.Bitmap
	// nackedB marks the parked ones: unacked, resource-NACKed and waiting
	// for their scheduled backoff retransmit.
	nackedB wire.Bitmap
}

// minRing is the length a scoreboard ring starts at (less when WindowSize
// is smaller).
const minRing = 8

func (s *txSpace) slot(psn uint32) *txPacket { return &s.pkts[int(psn)&(len(s.pkts)-1)] }

// inFlight reports whether psn has been sent and not yet acknowledged: it
// lies in [base, next), in serial arithmetic, and its acked bit is clear.
// Only such a PSN's slot is its own.
func (s *txSpace) inFlight(psn uint32) bool {
	o := psn - s.base
	return o < s.next-s.base && !s.acked.Get(int(o))
}

// outstanding counts the space's sent, unacknowledged packets.
func (s *txSpace) outstanding() int { return int(s.next-s.base) - s.acked.OnesCount() }

// grow allocates the ring on the space's first send (minRing slots, fewer
// when window is smaller) and doubles it after that, moving the live slots
// [base, next) to their places under the wider mask. The slots below base
// are dropped: no PSN there is in flight, so none is looked up.
func (s *txSpace) grow(window int) {
	old := s.pkts
	n := 2 * len(old)
	if n == 0 {
		n = minRing
		for n > window {
			n /= 2
		}
	}
	s.pkts = make([]txPacket, n)
	for psn := s.base; psn != s.next; psn++ {
		*s.slot(psn) = old[int(psn)&(len(old)-1)]
	}
}

// txRef names a tracked packet by sequence space and PSN: unlike a
// *txPacket, it stays valid when the ring grows.
type txRef struct {
	space wire.Space
	psn   uint32
}

// advanceTo slides the window base forward to newBase, shifting the
// bitmaps to keep them base-relative.
func (s *txSpace) advanceTo(newBase uint32) {
	n := int(int32(newBase - s.base))
	if n <= 0 {
		return
	}
	s.acked.ShiftRight(n)
	s.nackedB.ShiftRight(n)
	s.base = newBase
}

// rxSpace is the receiver side of one sequence space.
type rxSpace struct {
	base   uint32
	bitmap wire.Bitmap
}

// rxFlow is per-flow receiver state: the latest timestamp pair for delay
// computation, the ACK coalescing counter, and the pending ECN echo. It is
// its own coalescing-timer callback (sim.Action), so arming the timer
// allocates nothing.
type rxFlow struct {
	c        *Conn
	idx      int32
	pending  int32
	t1, t2   int64
	ackTimer sim.Timer
	valid    bool
	ceSeen   bool
}

// RunAction flushes the coalesced ACK when the timer fires.
func (rf *rxFlow) RunAction() {
	rf.c.Stats.AcksCoalesced++
	rf.c.sendAck(int(rf.idx))
}

// flowState is per-flow sender state.
type flowState struct {
	label       wire.FlowLabel
	outstanding int32
	fcwnd       float64
	// rackXmit is the latest original-transmission time among packets
	// of this flow that have been SACKed (per-flow RACK, §4.3).
	rackXmit sim.Time
	sent     uint64 // data packets sent on this flow (AR cadence)
}

// Stats counts per-connection PDL activity.
type Stats struct {
	DataSent        uint64
	DataRetransmits uint64
	TLPProbes       uint64
	RTOs            uint64
	AcksSent        uint64
	AcksReceived    uint64
	Duplicates      uint64
	NacksSent       uint64
	NacksReceived   uint64
	DeliveredToTL   uint64
	RxWindowDrops   uint64

	// Retransmissions split by detection cause (§4.1's recovery
	// hierarchy); the five sum to DataRetransmits.
	RetxRACK        uint64 // RACK reordering-window expiry
	RetxOOO         uint64 // OOO-distance ablation baseline
	RetxTLP         uint64 // tail loss probes
	RetxRTO         uint64 // timeout full-window scans
	RetxNackBackoff uint64 // resource-NACK backoff re-sends

	// ACK generation split: AcksImmediate were forced by the AR bit, the
	// coalescing count, or a duplicate; AcksCoalesced were flushed by the
	// coalescing timer. The two sum to AcksSent.
	AcksImmediate uint64
	AcksCoalesced uint64

	// Received exception NACKs split by code; the three sum to
	// NacksReceived.
	NacksRnr      uint64
	NacksResource uint64
	NacksCie      uint64

	// MaxConsecRTOs is the deepest RTO-backoff escalation observed: the
	// longest run of timeouts without ACK progress. It measures how close
	// the connection came to its MaxConsecutiveRTOs death budget during a
	// fault — the chaos recovery envelope's escalation-depth metric.
	MaxConsecRTOs uint64
}

// Conn is one Falcon connection's PDL instance (one direction's sender and
// receiver state; a connection is full-duplex so both peers instantiate
// one).
type Conn struct {
	sim *sim.Simulator
	cfg Config
	up  Upper
	id  uint32
	// failed is set once the connection is declared dead (see
	// consecRTOs); it sits beside id to share its word.
	failed bool

	// pool recycles ACK/NACK packets this connection builds and data
	// packets it owns (see wire.PacketPool's ownership contract). A nil
	// pool falls back to heap packets, which directly-constructed test
	// connections rely on.
	pool *wire.PacketPool

	// Sender state.
	tx     [wire.NumSpaces]txSpace
	flows  []flowState
	ncwnd  float64
	reqQ   ring.Ring[*wire.Packet] // queued request-space packets from TL
	respQ  ring.Ring[*wire.Packet] // queued response-space packets from TL
	rrNext int                     // round-robin cursor for PolicyRoundRobin

	rto        time.Duration
	rackReoWnd time.Duration
	tlpTimeout time.Duration

	// The small counters share two words.
	rtoBackoff int32 // RTO backoff exponent, at most 8
	// consecRTOs counts timeouts since the last ACK progress; at the
	// configured budget the connection is declared failed.
	consecRTOs int32
	// reoWndMult adapts the RACK reordering window upward when spurious
	// retransmissions are detected (RFC 8985 §7.1 behaviour: reordering
	// past the window means the window was too small).
	reoWndMult int32
	hops       int32 // last observed path hop count
	// srttHint is a local smoothed RTT used for spuriousness detection
	// and as the adaptive reo-window cap.
	srttHint time.Duration

	// The deadline timers (see timers.go).
	rtoTimer  lazyTimer
	tlpTimer  lazyTimer
	rackTimer lazyTimer

	// paceTimer releases a fractional-window connection's next packet at
	// nextPaced, the earliest instant it may transmit (Carousel-style
	// pacing: one packet per srtt/cwnd).
	paceTimer sim.Timer
	paceAct   timerAction
	nextPaced sim.Time
	// nackEvents is the free list of resource-NACK backoff events.
	nackEvents sim.FreeList[nackRetryEvent]

	// Receiver state.
	rx     [wire.NumSpaces]rxSpace
	rxFlow []rxFlow

	// lastAckProgress notes the last time an ACK advanced anything, for
	// TLP's "period of inactivity".
	lastAckProgress sim.Time

	// probe, when non-nil, observes sends and receives (verification).
	probe Probe

	// lostScratch is the recovery scans' list, kept for its capacity.
	lostScratch []txRef

	Stats Stats
}

// ErrConnectionLost is reported via Upper.Fail when the RTO budget
// is exhausted without any acknowledgment progress.
var ErrConnectionLost = errConnectionLost{}

type errConnectionLost struct{}

func (errConnectionLost) Error() string {
	return "pdl: connection lost (retransmission budget exhausted)"
}

// Failed reports whether the connection has been declared dead.
func (c *Conn) Failed() bool { return c.failed }

// NewConn builds a connection PDL. The FAE must be told about the
// connection separately (fae.RegisterConn); labels are installed via
// SetFlowLabels or ApplyResponse.
func NewConn(s *sim.Simulator, id uint32, cfg Config, up Upper) *Conn {
	if cfg.WindowSize <= 0 || cfg.WindowSize > wire.BitmapBits {
		cfg.WindowSize = wire.BitmapBits
	}
	if cfg.NumFlows < 1 {
		cfg.NumFlows = 1
	}
	if cfg.NumFlows > wire.MaxFlows {
		cfg.NumFlows = wire.MaxFlows
	}
	if cfg.AckCoalesceCount < 1 {
		cfg.AckCoalesceCount = 1
	}
	c := &Conn{
		sim:        s,
		cfg:        cfg,
		up:         up,
		id:         id,
		rto:        initialRTO,
		rackReoWnd: initialRTO / 8,
		tlpTimeout: initialRTO / 2,
		reoWndMult: 1,
		ncwnd:      float64(cfg.WindowSize),
	}
	c.rtoTimer.act = timerAction{c: c, kind: timerRTO}
	c.tlpTimer.act = timerAction{c: c, kind: timerTLP}
	c.rackTimer.act = timerAction{c: c, kind: timerRack}
	c.paceAct = timerAction{c: c, kind: timerPace}
	for i := range c.tx {
		c.tx[i].space = wire.Space(i)
	}
	c.flows = make([]flowState, cfg.NumFlows)
	c.rxFlow = make([]rxFlow, cfg.NumFlows)
	for i := 0; i < cfg.NumFlows; i++ {
		c.flows[i] = flowState{
			label: wire.MakeFlowLabel(uint32(id)*wire.MaxFlows+uint32(i)+1, i),
			fcwnd: 16 / float64(cfg.NumFlows),
		}
		c.rxFlow[i] = rxFlow{c: c, idx: int32(i)}
	}
	return c
}

// SetPacketPool attaches a packet pool (nil keeps heap packets). Must be
// called before traffic flows; internal/core wires its cluster's pool.
func (c *Conn) SetPacketPool(p *wire.PacketPool) { c.pool = p }

// ID returns the connection ID.
func (c *Conn) ID() uint32 { return c.id }

// Config returns the connection's configuration (after NewConn clamping).
func (c *Conn) Config() Config { return c.cfg }

// TxState exposes one sequence space's sender window for inspection:
// the lowest unacked PSN, the next PSN to assign, and the count of
// transmitted-but-unacked packets.
func (c *Conn) TxState(space wire.Space) (base, next uint32, outstanding int) {
	ts := &c.tx[space]
	return ts.base, ts.next, ts.outstanding()
}

// CheckScoreboard reports the first inconsistency in the sender's
// scoreboard, or "" when there is none: a parked PSN that is also acked, a
// bitmap bit at or above next−base, per-flow outstanding counts that do
// not sum to Outstanding, an acked slot that still holds a packet, or, on
// a connection that has not failed (failing releases them), an in-flight
// slot that does not hold one stamped with its own PSN. internal/testkit's
// checker calls it after every PDL event it checks.
func (c *Conn) CheckScoreboard() string {
	for i := range c.tx {
		ts := &c.tx[i]
		n := int(ts.next - ts.base)
		if ts.nackedB.AndNot(ts.acked) != ts.nackedB {
			return fmt.Sprintf("%v space: PSNs both acked %v and parked %v (base %d)", ts.space, ts.acked, ts.nackedB, ts.base)
		}
		if win := wire.LowMask(n); !ts.acked.AndNot(win).IsZero() || !ts.nackedB.AndNot(win).IsZero() {
			return fmt.Sprintf("%v space: bits set at or above next-base %d: acked %v parked %v", ts.space, n, ts.acked, ts.nackedB)
		}
		for o := 0; o < n; o++ {
			psn := ts.base + uint32(o)
			switch pkt := ts.slot(psn).pkt; {
			case ts.acked.Get(o) && pkt != nil:
				return fmt.Sprintf("%v space PSN %d: acked slot still holds a packet", ts.space, psn)
			case !ts.acked.Get(o) && !c.failed && (pkt == nil || pkt.PSN != psn):
				return fmt.Sprintf("%v space PSN %d: in-flight slot holds %v", ts.space, psn, pkt)
			}
		}
	}
	flowOut := 0
	for i := range c.flows {
		flowOut += int(c.flows[i].outstanding)
	}
	if flowOut != c.Outstanding() {
		return fmt.Sprintf("flows hold %d outstanding, spaces %d", flowOut, c.Outstanding())
	}
	return ""
}

// RxState exposes one sequence space's receiver window: the cumulative
// base (all PSNs below it received) and the SACK bitmap relative to it.
func (c *Conn) RxState(space wire.Space) (base uint32, bitmap wire.Bitmap) {
	rs := &c.rx[space]
	return rs.base, rs.bitmap
}

// Fcwnd returns the sum of per-flow congestion windows (the fabric-side
// connection window; responses are gated by it alone, §4.4).
func (c *Conn) Fcwnd() float64 {
	sum := 0.0
	for i := range c.flows {
		sum += c.flows[i].fcwnd
	}
	return sum
}

// FlowLabel returns flow i's current label.
func (c *Conn) FlowLabel(i int) wire.FlowLabel { return c.flows[i].label }

// SetFlowLabels installs initial labels (from fae.RegisterConn).
func (c *Conn) SetFlowLabels(labels []wire.FlowLabel) {
	for i, l := range labels {
		if i < len(c.flows) {
			c.flows[i].label = l
		}
	}
}

// EffectiveWindow returns min(Σ fcwnd, ncwnd) — the connection-level send
// window for request-space packets.
func (c *Conn) EffectiveWindow() float64 {
	f := c.Fcwnd()
	if c.ncwnd < f {
		return c.ncwnd
	}
	return f
}

// Ncwnd returns the connection's NIC congestion window.
func (c *Conn) Ncwnd() float64 { return c.ncwnd }

// SRTT returns the connection's locally smoothed RTT estimate
// (diagnostics).
func (c *Conn) SRTT() time.Duration { return c.srttHint }

// totalInFlight is the congestion-window occupancy: outstanding packets
// minus those parked on a resource-NACK backoff. The peer explicitly
// refused the parked ones, so they are known to have left the network and
// must not consume congestion window: otherwise a window full of refused
// packets deadlocks against a receiver that is refusing everything except
// the one head-of-line RSN still queued behind them (§4.5).
func (c *Conn) totalInFlight() int {
	return c.Outstanding() - c.Parked()
}

// QueuedPackets returns packets accepted from the TL but not yet
// transmitted (scheduler backlog).
func (c *Conn) QueuedPackets() int { return c.reqQ.Len() + c.respQ.Len() }

// Outstanding returns the number of transmitted-but-unacked packets.
func (c *Conn) Outstanding() int { return c.tx[0].outstanding() + c.tx[1].outstanding() }

// NackRetryEvents reports how many resource-NACK backoff events the
// connection has built and how many are on its free list: equal once no
// backoff retransmit is pending.
func (c *Conn) NackRetryEvents() (built, free int) {
	return c.nackEvents.Built(), c.nackEvents.Free()
}

// Parked returns the number of outstanding packets currently excluded from
// the congestion window because the peer resource-NACKed them and a backoff
// retransmit is scheduled.
func (c *Conn) Parked() int { return c.tx[0].nackedB.OnesCount() + c.tx[1].nackedB.OnesCount() }

// ApplyResponse installs FAE-computed parameters (the FAE→PDL response ring
// of Figure 9) and reattempts transmission since windows may have opened.
func (c *Conn) ApplyResponse(r fae.Response) {
	if r.Flow >= 0 && r.Flow < len(c.flows) {
		c.flows[r.Flow].fcwnd = r.FlowCwnd
		c.flows[r.Flow].label = r.FlowLabel
	}
	c.ncwnd = r.NCwnd
	if r.RTO > 0 {
		c.rto = r.RTO
	}
	if r.RackReoWnd > 0 {
		c.rackReoWnd = r.RackReoWnd
	}
	if r.TLPTimeout > 0 {
		c.tlpTimeout = r.TLPTimeout
	}
	c.trySend()
}
