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
// # Hot-path layout (DESIGN.md §11)
//
// The per-packet send/ack path is steady-state allocation-free: tracked
// packets live in by-value scoreboard slots, the acked/parked sets are
// mirrored in 128-bit bitmaps scanned a word at a time, wire packets are
// recycled through a wire.PacketPool, and every timer is a pooled typed
// event (sim.Action) re-armed lazily (timers.go). The per-PSN loops the
// word scans replaced survive as the reference model in scan_model_test.go.
package pdl

import (
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
	// AckCoalesceDelay bounds ACK latency when the count is not reached.
	AckCoalesceDelay time.Duration
	// ARInterval sets the AckReq bit every N-th data packet of a flow so
	// the sender keeps RTT samples flowing on long transfers.
	ARInterval int

	// InitialRTO seeds timers before the FAE provides measurements.
	InitialRTO time.Duration
	// MaxRTOBackoff caps exponential RTO backoff.
	MaxRTOBackoff time.Duration
	// MaxConsecutiveRTOs is the retry budget: a connection that times
	// out this many times without any ACK progress is declared failed
	// (Callbacks.Failed fires once) rather than retrying forever.
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
		AckCoalesceDelay:   5 * time.Microsecond,
		ARInterval:         8,
		InitialRTO:         200 * time.Microsecond,
		MaxRTOBackoff:      20 * time.Millisecond,
		MaxConsecutiveRTOs: 12,
	}
}

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

// DeliverVerdict is returned by Callbacks.Deliver.
type DeliverVerdict struct {
	Kind       DeliverVerdictKind
	RetryDelay time.Duration // RNR retry hint
}

// Callbacks wires a connection's PDL to its NIC, TL and FAE.
type Callbacks struct {
	// Send transmits a packet onto the fabric (via the NIC model). The
	// caller keeps its hold: an implementation that retains the packet
	// past the call must take a hold of its own with
	// wire.PacketPool.Share, and must not write to it (ACK/NACK packets
	// are released when Send returns; data packets are unshared before
	// each retransmission is stamped).
	Send func(p *wire.Packet)
	// Deliver hands an arriving data packet to the transaction layer.
	Deliver func(p *wire.Packet) DeliverVerdict
	// PacketAcked notifies the TL that a transmitted packet has been
	// acknowledged (TX resource release, unordered completions).
	PacketAcked func(space wire.Space, psn uint32, rsn uint64, typ wire.Type)
	// Completed advances the initiator's ordered completion horizon: all
	// transactions with RSN < completedRSN are done at the target.
	Completed func(completedRSN uint64)
	// NackReceived passes RNR/CIE NACKs up to the TL.
	NackReceived func(p *wire.Packet)
	// Failed reports a terminal connection failure (RTO budget
	// exhausted); the TL errors all pending transactions.
	Failed func(err error)
	// PostEvent posts a congestion/loss event to the FAE.
	PostEvent func(ev fae.Event)
	// RxBufOccupancy samples the NIC RX buffer occupancy (0..1) when
	// building an ACK.
	RxBufOccupancy func() float64
	// CompletedRSN samples the TL's cumulative completed RSN when
	// building an ACK (zero if the connection is unordered).
	CompletedRSN func() uint64
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
// the scoreboard ring; psn/rsn/typ are copied out of the packet at
// transmit time so the wire packet can return to its pool the moment the
// slot is acknowledged.
//
// The ring grows while packets are in flight (txSpace.grow), which moves
// every live slot. So no *txPacket may be held across a call out of the
// PDL — PacketAcked, PostEvent, Send — because the callee can send, and a
// send can grow the ring: code that must outlive such a call carries the
// PSN (or a txRef) and re-resolves the slot afterwards.
type txPacket struct {
	pkt    *wire.Packet
	txTime sim.Time
	origTx sim.Time // first transmission time (for RTT-valid sampling)
	psn    uint32
	rsn    uint64
	gen    uint32 // bumped when the slot is reused (stale-timer guard)
	flow   int32
	retx   int
	typ    wire.Type
	live   bool // slot has been filled at least once for psn
	acked  bool
	nacked bool // resource-NACKed, awaiting scheduled retransmit
}

// txSpace is the sender side of one sequence space. The acked and nacked
// bitmaps mirror the per-slot flags relative to base (bit i describes PSN
// base+i; WindowSize never exceeds wire.BitmapBits), which is what lets
// ACK processing and loss recovery scan the scoreboard a word at a time.
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
	// acked mirrors slot.acked for live slots in [base, next).
	acked wire.Bitmap
	// nackedB mirrors slot.nacked (parked packets) the same way.
	nackedB wire.Bitmap
	// outstanding counts unacked transmitted packets.
	outstanding int
	// parked counts the subset of outstanding packets that are
	// resource-NACKed and waiting for their scheduled backoff retransmit.
	// The peer explicitly refused them, so they are known to have left the
	// network and must not consume congestion window: otherwise a window
	// full of refused packets deadlocks against a receiver that is
	// refusing everything except the one head-of-line RSN still queued
	// behind them (§4.5).
	parked int
}

// minRing is the length a scoreboard ring starts at (less when WindowSize
// is smaller).
const minRing = 8

func (s *txSpace) slot(psn uint32) *txPacket { return &s.pkts[int(psn)&(len(s.pkts)-1)] }

// grow allocates the ring on the space's first send (minRing slots, fewer
// when window is smaller) and doubles it after that, moving the live slots
// [base, next) to their places under the wider mask. The slots below base
// are dropped: every lookup of a PSN there finds an acked or overwritten
// slot in the old ring and an empty or overwritten one in the new, and
// treats all of them as unknown.
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
// bitmap mirrors to keep them base-relative.
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
	idx      int
	t1, t2   int64
	pending  int
	ackTimer sim.Timer
	valid    bool
	ceSeen   bool
}

// RunAction flushes the coalesced ACK when the timer fires.
func (rf *rxFlow) RunAction() {
	rf.c.Stats.AcksCoalesced++
	rf.c.sendAck(rf.idx)
}

// flowState is per-flow sender state.
type flowState struct {
	label       wire.FlowLabel
	fcwnd       float64
	outstanding int
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
	sim  *sim.Simulator
	cfg  Config
	cb   Callbacks
	id   uint32
	hops int // last observed path hop count

	// pool recycles ACK/NACK packets this connection builds and data
	// packets it owns (see wire.PacketPool's ownership contract). A nil
	// pool falls back to heap packets, which directly-constructed test
	// connections rely on.
	pool *wire.PacketPool

	// Sender state.
	tx     [wire.NumSpaces]*txSpace
	flows  []flowState
	ncwnd  float64
	reqQ   ring.Ring[*wire.Packet] // queued request-space packets from TL
	respQ  ring.Ring[*wire.Packet] // queued response-space packets from TL
	rrNext int                     // round-robin cursor for PolicyRoundRobin

	rto        time.Duration
	rackReoWnd time.Duration
	tlpTimeout time.Duration
	rtoBackoff int

	// reoWndMult adapts the RACK reordering window upward when spurious
	// retransmissions are detected (RFC 8985 §7.1 behaviour: reordering
	// past the window means the window was too small).
	reoWndMult int
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
	nackEvents *nackRetryEvent

	// Receiver state.
	rx     [wire.NumSpaces]*rxSpace
	rxFlow []rxFlow

	// lastAckProgress notes the last time an ACK advanced anything, for
	// TLP's "period of inactivity".
	lastAckProgress sim.Time

	// consecRTOs counts timeouts since the last ACK progress; at the
	// configured budget the connection is declared failed.
	consecRTOs int
	failed     bool

	// probe, when non-nil, observes sends and receives (verification).
	probe Probe

	// Scratch buffers reused across ACK processing and recovery scans.
	ackScratch  [wire.MaxFlows]int
	lostScratch []txRef

	Stats Stats
}

// ErrConnectionLost is reported via Callbacks.Failed when the RTO budget
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
func NewConn(s *sim.Simulator, id uint32, cfg Config, cb Callbacks) *Conn {
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
	if cfg.InitialRTO <= 0 {
		cfg.InitialRTO = 200 * time.Microsecond
	}
	c := &Conn{
		sim:        s,
		cfg:        cfg,
		cb:         cb,
		id:         id,
		rto:        cfg.InitialRTO,
		rackReoWnd: cfg.InitialRTO / 8,
		tlpTimeout: cfg.InitialRTO / 2,
		reoWndMult: 1,
		ncwnd:      float64(cfg.WindowSize),
	}
	c.rtoTimer.act = timerAction{c: c, kind: timerRTO}
	c.tlpTimer.act = timerAction{c: c, kind: timerTLP}
	c.rackTimer.act = timerAction{c: c, kind: timerRack}
	c.paceAct = timerAction{c: c, kind: timerPace}
	for i := range c.tx {
		c.tx[i] = &txSpace{space: wire.Space(i)}
		c.rx[i] = &rxSpace{}
	}
	c.flows = make([]flowState, cfg.NumFlows)
	c.rxFlow = make([]rxFlow, cfg.NumFlows)
	for i := 0; i < cfg.NumFlows; i++ {
		c.flows[i] = flowState{
			label: wire.MakeFlowLabel(uint32(id)*wire.MaxFlows+uint32(i)+1, i),
			fcwnd: 16 / float64(cfg.NumFlows),
		}
		c.rxFlow[i] = rxFlow{c: c, idx: i}
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
	ts := c.tx[space]
	return ts.base, ts.next, ts.outstanding
}

// TxUnacked recounts the unacked tracked packets in [base, next) by
// scanning the scoreboard. Verification compares it against the
// incrementally maintained outstanding counter.
func (c *Conn) TxUnacked(space wire.Space) int {
	ts := c.tx[space]
	n := 0
	for psn := ts.base; psn != ts.next; psn++ {
		if tp := ts.slot(psn); tp.live && tp.psn == psn && !tp.acked {
			n++
		}
	}
	return n
}

// RxState exposes one sequence space's receiver window: the cumulative
// base (all PSNs below it received) and the SACK bitmap relative to it.
func (c *Conn) RxState(space wire.Space) (base uint32, bitmap wire.Bitmap) {
	rs := c.rx[space]
	return rs.base, rs.bitmap
}

// Fcwnd returns the sum of per-flow congestion windows (the fabric-side
// connection window; responses are gated by it alone, §4.4).
func (c *Conn) Fcwnd() float64 { return c.connFcwnd() }

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
	f := c.connFcwnd()
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

func (c *Conn) connFcwnd() float64 {
	sum := 0.0
	for i := range c.flows {
		sum += c.flows[i].fcwnd
	}
	return sum
}

func (c *Conn) totalOutstanding() int {
	return c.tx[0].outstanding + c.tx[1].outstanding
}

// totalInFlight is the congestion-window occupancy: outstanding packets
// minus those parked on a resource-NACK backoff (known off the network).
func (c *Conn) totalInFlight() int {
	n := c.totalOutstanding() - c.tx[0].parked - c.tx[1].parked
	if n < 0 {
		n = 0
	}
	return n
}

// QueuedPackets returns packets accepted from the TL but not yet
// transmitted (scheduler backlog).
func (c *Conn) QueuedPackets() int { return c.reqQ.Len() + c.respQ.Len() }

// Outstanding returns the number of transmitted-but-unacked packets.
func (c *Conn) Outstanding() int { return c.totalOutstanding() }

// Parked returns the number of outstanding packets currently excluded from
// the congestion window because the peer resource-NACKed them and a backoff
// retransmit is scheduled.
func (c *Conn) Parked() int { return c.tx[0].parked + c.tx[1].parked }

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
