package pdl

import (
	"testing"
	"time"

	"falcon/internal/falcon/fae"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// pair wires two connection PDLs back-to-back through a configurable
// channel, each with its own FAE engine — a minimal two-NIC testbed.
type pair struct {
	s    *sim.Simulator
	a, b *Conn

	latency time.Duration
	// dropAB/dropBA decide per-packet drops; nil means no drops.
	dropAB func(p *wire.Packet) bool
	dropBA func(p *wire.Packet) bool
	// delayAB adds extra one-way delay per packet (reordering injection).
	delayAB func(p *wire.Packet) time.Duration

	deliveredAtB []*wire.Packet
	deliveredAtA []*wire.Packet
	ackedAtA     int
	completedAtA []uint64
	nacksAtA     []*wire.Packet

	verdictAtB func(p *wire.Packet) DeliverVerdict

	occupancyB float64
	rsnB       uint64
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	p := &pair{s: sim.New(5), latency: 5 * time.Microsecond}

	engCfg := fae.DefaultConfig()
	var engA, engB *fae.Engine

	clone := func(pkt *wire.Packet) *wire.Packet {
		cp := *pkt
		return &cp
	}

	p.a = NewConn(p.s, 1, cfg, &Callbacks{
		Send: func(pkt *wire.Packet) {
			cp := clone(pkt)
			d := p.latency
			if p.delayAB != nil {
				d += p.delayAB(cp)
			}
			if p.dropAB != nil && p.dropAB(cp) {
				return
			}
			p.s.After(d, func() { p.b.HandlePacket(cp, 1) })
		},
		Deliver: func(pkt *wire.Packet) DeliverVerdict {
			p.deliveredAtA = append(p.deliveredAtA, pkt)
			return DeliverVerdict{}
		},
		PacketAcked: func(space wire.Space, psn uint32, rsn uint64, typ wire.Type) { p.ackedAtA++ },
		Completed:   func(rsn uint64) { p.completedAtA = append(p.completedAtA, rsn) },
		NackReceived: func(pkt *wire.Packet) {
			p.nacksAtA = append(p.nacksAtA, pkt)
		},
		PostEvent:      func(ev fae.Event) { engA.Post(ev) },
		RxBufOccupancy: func() float64 { return 0 },
		CompletedRSN:   func() uint64 { return 0 },
	})
	p.b = NewConn(p.s, 1, cfg, &Callbacks{
		Send: func(pkt *wire.Packet) {
			cp := clone(pkt)
			if p.dropBA != nil && p.dropBA(cp) {
				return
			}
			p.s.After(p.latency, func() { p.a.HandlePacket(cp, 1) })
		},
		Deliver: func(pkt *wire.Packet) DeliverVerdict {
			if p.verdictAtB != nil {
				v := p.verdictAtB(pkt)
				if v.Kind == DeliverAccept {
					p.deliveredAtB = append(p.deliveredAtB, pkt)
				}
				return v
			}
			p.deliveredAtB = append(p.deliveredAtB, pkt)
			return DeliverVerdict{}
		},
		PostEvent:      func(ev fae.Event) { engB.Post(ev) },
		RxBufOccupancy: func() float64 { return p.occupancyB },
		CompletedRSN:   func() uint64 { return p.rsnB },
	})

	engA = fae.New(p.s, engCfg, func(r fae.Response) { p.a.ApplyResponse(r) })
	engB = fae.New(p.s, engCfg, func(r fae.Response) { p.b.ApplyResponse(r) })
	p.a.SetFlowLabels(engA.RegisterConn(1, cfg.NumFlows))
	p.b.SetFlowLabels(engB.RegisterConn(1, cfg.NumFlows))
	return p
}

// callbacks returns the adapter c was built with, for a test to rewire.
func callbacks(c *Conn) *Callbacks { return c.up.(*Callbacks) }

func dataPacket(rsn uint64, typ wire.Type, size uint32) *wire.Packet {
	return &wire.Packet{Type: typ, RSN: rsn, Length: size}
}

func TestBasicReliableDelivery(t *testing.T) {
	p := newPair(t, DefaultConfig())
	const n = 50
	for i := 0; i < n; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(p.deliveredAtB) != n {
		t.Fatalf("delivered %d of %d", len(p.deliveredAtB), n)
	}
	if p.a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain", p.a.Outstanding())
	}
	if p.ackedAtA != n {
		t.Fatalf("acked %d of %d", p.ackedAtA, n)
	}
	if p.a.Stats.DataRetransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", p.a.Stats.DataRetransmits)
	}
}

func TestAckCoalescingReducesAcks(t *testing.T) {
	p := newPair(t, DefaultConfig())
	const n = 64
	for i := 0; i < n; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(p.deliveredAtB) != n {
		t.Fatalf("delivered %d", len(p.deliveredAtB))
	}
	if p.b.Stats.AcksSent >= n {
		t.Fatalf("acks %d not coalesced for %d packets", p.b.Stats.AcksSent, n)
	}
}

func TestLossRecoveryWithRack(t *testing.T) {
	p := newPair(t, DefaultConfig())
	// Drop every 7th first-transmission data packet.
	sent := 0
	p.dropAB = func(pkt *wire.Packet) bool {
		if !pkt.Type.IsData() || pkt.Flags&wire.FlagRetransmit != 0 {
			return false
		}
		sent++
		return sent%7 == 0
	}
	const n = 100
	for i := 0; i < n; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(p.deliveredAtB) != n {
		t.Fatalf("delivered %d of %d despite retransmission", len(p.deliveredAtB), n)
	}
	if p.a.Stats.DataRetransmits == 0 {
		t.Fatal("expected retransmissions")
	}
	if p.a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", p.a.Outstanding())
	}
}

func TestTailLossProbeRecoversFinalPacket(t *testing.T) {
	p := newPair(t, DefaultConfig())
	dropped := false
	p.dropAB = func(pkt *wire.Packet) bool {
		// Drop the very last data packet's first transmission.
		if pkt.Type.IsData() && pkt.RSN == 9 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	for i := 0; i < 10; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(p.deliveredAtB) != 10 {
		t.Fatalf("delivered %d of 10", len(p.deliveredAtB))
	}
	if p.a.Stats.TLPProbes == 0 {
		t.Fatal("tail loss should be recovered by a TLP probe")
	}
	if p.a.Stats.RTOs != 0 {
		t.Fatalf("tail loss fell back to RTO (%d), TLP should fire first", p.a.Stats.RTOs)
	}
}

func TestReorderingDoesNotCauseSpuriousRetx(t *testing.T) {
	cfg := DefaultConfig()
	p := newPair(t, cfg)
	// Delay every 5th packet by 8us: reordering within the RACK window.
	i := 0
	p.delayAB = func(pkt *wire.Packet) time.Duration {
		if !pkt.Type.IsData() {
			return 0
		}
		i++
		if i%5 == 0 {
			return 8 * time.Microsecond
		}
		return 0
	}
	const n = 100
	for k := 0; k < n; k++ {
		p.a.SendPacket(dataPacket(uint64(k), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(p.deliveredAtB) != n {
		t.Fatalf("delivered %d", len(p.deliveredAtB))
	}
	// RACK's reo-window adaptation needs to observe a few spurious
	// retransmissions before it widens past the injected delay; after
	// that, reordering must cause no further retransmissions. 20 packets
	// are delayed, so anything close to 20 means no adaptation.
	if p.a.Stats.DataRetransmits > 5 {
		t.Fatalf("RACK should tolerate mild reordering; retransmits = %d", p.a.Stats.DataRetransmits)
	}
}

func TestOOODistanceSpuriousUnderReordering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Recovery = RecoveryOOODistance
	p := newPair(t, cfg)
	i := 0
	p.delayAB = func(pkt *wire.Packet) time.Duration {
		if !pkt.Type.IsData() {
			return 0
		}
		i++
		if i%5 == 0 {
			return 25 * time.Microsecond
		}
		return 0
	}
	const n = 100
	for k := 0; k < n; k++ {
		p.a.SendPacket(dataPacket(uint64(k), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(p.deliveredAtB) != n {
		t.Fatalf("delivered %d", len(p.deliveredAtB))
	}
	if p.a.Stats.DataRetransmits == 0 {
		t.Fatal("OOO-distance should retransmit spuriously under reordering (the Fig 11b contrast)")
	}
}

// TestSequenceWindowNeverExceeded holds the lowest PSN unacknowledged
// (its transmissions are dropped) while the PSNs above it are SACKed, so
// next−base climbs to the full window of wire.BitmapBits PSNs and must
// stop there.
func TestSequenceWindowNeverExceeded(t *testing.T) {
	p := newPair(t, DefaultConfig())
	ts := &p.a.tx[wire.SpaceRequest]
	maxSpan := uint32(0)
	p.dropAB = func(pkt *wire.Packet) bool {
		maxSpan = max(maxSpan, ts.next-ts.base)
		return pkt.Type.IsData() && pkt.RSN == 0 && maxSpan < wire.BitmapBits
	}
	for i := 0; i < 200; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if maxSpan != wire.BitmapBits {
		t.Fatalf("next-base peaked at %d, want the full window %d", maxSpan, wire.BitmapBits)
	}
	if len(p.deliveredAtB) != 200 || p.a.Failed() {
		t.Fatalf("delivered %d (failed %v)", len(p.deliveredAtB), p.a.Failed())
	}
}

func TestMultipathSpreadsAcrossFlows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumFlows = 4
	p := newPair(t, cfg)
	flowsSeen := map[int]int{}
	p.dropAB = func(pkt *wire.Packet) bool {
		if pkt.Type.IsData() {
			flowsSeen[pkt.FlowLabel.FlowIndex()]++
		}
		return false
	}
	for i := 0; i < 200; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(flowsSeen) < 3 {
		t.Fatalf("packets used %d flows, want spread over ~4: %v", len(flowsSeen), flowsSeen)
	}
}

func TestRoundRobinPolicyUsesAllFlows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumFlows = 4
	cfg.Policy = PolicyRoundRobin
	p := newPair(t, cfg)
	flowsSeen := map[int]int{}
	p.dropAB = func(pkt *wire.Packet) bool {
		if pkt.Type.IsData() {
			flowsSeen[pkt.FlowLabel.FlowIndex()]++
		}
		return false
	}
	for i := 0; i < 100; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(flowsSeen) != 4 {
		t.Fatalf("round robin used %d flows: %v", len(flowsSeen), flowsSeen)
	}
}

func TestPullResponseUsesResponseSpace(t *testing.T) {
	p := newPair(t, DefaultConfig())
	seen := map[wire.Space]int{}
	p.dropAB = func(pkt *wire.Packet) bool {
		if pkt.Type.IsData() {
			seen[pkt.Space]++
		}
		return false
	}
	p.a.SendPacket(dataPacket(1, wire.TypePullRequest, 64))
	p.a.SendPacket(dataPacket(2, wire.TypePullResponse, 4096))
	p.s.Run()
	if seen[wire.SpaceRequest] != 1 || seen[wire.SpaceResponse] != 1 {
		t.Fatalf("space usage: %v", seen)
	}
	if len(p.deliveredAtB) != 2 {
		t.Fatalf("delivered %d", len(p.deliveredAtB))
	}
}

func TestResourceNackTriggersDelayedRetransmit(t *testing.T) {
	p := newPair(t, DefaultConfig())
	refusals := 0
	p.verdictAtB = func(pkt *wire.Packet) DeliverVerdict {
		if refusals < 3 {
			refusals++
			return DeliverVerdict{Kind: DeliverNoResources}
		}
		return DeliverVerdict{Kind: DeliverAccept}
	}
	p.a.SendPacket(dataPacket(1, wire.TypePushData, 4096))
	p.s.Run()
	if len(p.deliveredAtB) != 1 {
		t.Fatalf("delivered %d after resource NACKs", len(p.deliveredAtB))
	}
	if p.b.Stats.NacksSent == 0 || p.a.Stats.NacksReceived == 0 {
		t.Fatal("resource NACKs not exchanged")
	}
	if p.a.Outstanding() != 0 {
		t.Fatal("packet still outstanding")
	}
}

func TestRNRNackReachesTL(t *testing.T) {
	p := newPair(t, DefaultConfig())
	p.verdictAtB = func(pkt *wire.Packet) DeliverVerdict {
		return DeliverVerdict{Kind: DeliverRNR, RetryDelay: 100 * time.Microsecond}
	}
	p.a.SendPacket(dataPacket(7, wire.TypePushData, 4096))
	p.s.Run()
	if len(p.nacksAtA) != 1 {
		t.Fatalf("TL received %d NACKs, want 1", len(p.nacksAtA))
	}
	n := p.nacksAtA[0]
	if n.NackCode != wire.NackRNR || n.RSN != 7 {
		t.Fatalf("NACK = %+v", n)
	}
	if n.RetryDelayNs != uint32(100*time.Microsecond) {
		t.Fatalf("retry delay = %d", n.RetryDelayNs)
	}
	// The PDL context is freed: nothing outstanding, no RTO spin.
	if p.a.Outstanding() != 0 {
		t.Fatal("RNR-nacked packet still outstanding")
	}
}

func TestCIENackReachesTL(t *testing.T) {
	p := newPair(t, DefaultConfig())
	p.verdictAtB = func(pkt *wire.Packet) DeliverVerdict {
		return DeliverVerdict{Kind: DeliverCIE}
	}
	p.a.SendPacket(dataPacket(9, wire.TypePushData, 4096))
	p.s.Run()
	if len(p.nacksAtA) != 1 || p.nacksAtA[0].NackCode != wire.NackCIE {
		t.Fatalf("CIE NACK not delivered: %+v", p.nacksAtA)
	}
	if p.a.Outstanding() != 0 {
		t.Fatal("CIE-nacked packet still outstanding")
	}
}

func TestCompletedRSNPropagates(t *testing.T) {
	p := newPair(t, DefaultConfig())
	p.rsnB = 42
	p.a.SendPacket(dataPacket(1, wire.TypePushData, 4096))
	p.s.Run()
	if len(p.completedAtA) == 0 {
		t.Fatal("CompletedRSN never delivered")
	}
	if p.completedAtA[len(p.completedAtA)-1] != 42 {
		t.Fatalf("completed = %v", p.completedAtA)
	}
}

func TestDuplicateDeliveryIsAckedNotRedelivered(t *testing.T) {
	p := newPair(t, DefaultConfig())
	// Duplicate every data packet.
	p.delayAB = func(pkt *wire.Packet) time.Duration { return 0 }
	origSend := callbacks(p.a).Send
	callbacks(p.a).Send = func(pkt *wire.Packet) {
		origSend(pkt)
		if pkt.Type.IsData() {
			origSend(pkt)
		}
	}
	for i := 0; i < 20; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(p.deliveredAtB) != 20 {
		t.Fatalf("TL saw %d deliveries, want 20 (no duplicates)", len(p.deliveredAtB))
	}
	if p.b.Stats.Duplicates != 20 {
		t.Fatalf("duplicates detected = %d, want 20", p.b.Stats.Duplicates)
	}
}

func TestHeavyLossEventuallyDelivers(t *testing.T) {
	p := newPair(t, DefaultConfig())
	n := 0
	p.dropAB = func(pkt *wire.Packet) bool {
		if !pkt.Type.IsData() {
			return false
		}
		n++
		return n%3 == 0 // 33% loss, including retransmissions
	}
	const total = 60
	for i := 0; i < total; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(p.deliveredAtB) != total {
		t.Fatalf("delivered %d of %d under 33%% loss", len(p.deliveredAtB), total)
	}
}

func TestLostAcksRecoveredByTLP(t *testing.T) {
	p := newPair(t, DefaultConfig())
	acks := 0
	p.dropBA = func(pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeAck {
			acks++
			return acks <= 3 // drop the first 3 ACKs
		}
		return false
	}
	for i := 0; i < 10; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(p.deliveredAtB) != 10 || p.a.Outstanding() != 0 {
		t.Fatalf("delivered %d, outstanding %d", len(p.deliveredAtB), p.a.Outstanding())
	}
}

func TestCongestionShrinksEffectiveWindow(t *testing.T) {
	p := newPair(t, DefaultConfig())
	before := p.a.EffectiveWindow()
	// Inflate the path latency to 10x the Swift target.
	p.latency = 300 * time.Microsecond
	for i := 0; i < 64; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if p.a.EffectiveWindow() >= before {
		t.Fatalf("window %v did not shrink under congestion (was %v)", p.a.EffectiveWindow(), before)
	}
}

func TestNcwndRespondsToOccupancy(t *testing.T) {
	p := newPair(t, DefaultConfig())
	p.occupancyB = 0.95
	for i := 0; i < 64; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if p.a.Ncwnd() >= wire.BitmapBits {
		t.Fatalf("ncwnd %v did not shrink under RX occupancy", p.a.Ncwnd())
	}
}

func TestStatsAccounting(t *testing.T) {
	p := newPair(t, DefaultConfig())
	for i := 0; i < 25; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if p.a.Stats.DataSent != 25 {
		t.Fatalf("DataSent = %d", p.a.Stats.DataSent)
	}
	if p.b.Stats.DeliveredToTL != 25 {
		t.Fatalf("DeliveredToTL = %d", p.b.Stats.DeliveredToTL)
	}
	if p.b.Stats.AcksSent == 0 || p.a.Stats.AcksReceived == 0 {
		t.Fatal("no ACK accounting")
	}
}

func TestSendPacketPanicsOnNonData(t *testing.T) {
	p := newPair(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ACK through SendPacket")
		}
	}()
	p.a.SendPacket(&wire.Packet{Type: wire.TypeAck})
}

// TestConnectionFailsAfterRTOBudget runs twice: with every callback set,
// and with a sender built from a Callbacks that holds only Send and
// Deliver. That sender first recovers a loss, a resource NACK and an RNR
// NACK, learns a completion horizon and receives data, so each upcall it
// leaves nil runs as the adapter's no-op.
func TestConnectionFailsAfterRTOBudget(t *testing.T) {
	for _, bare := range []bool{false, true} {
		cfg := DefaultConfig()
		p := newPair(t, cfg)
		var failedErr error
		callbacks(p.a).Failed = func(err error) { failedErr = err }
		if bare {
			cb := callbacks(p.a)
			p.a = NewConn(p.s, 1, cfg, &Callbacks{Send: cb.Send, Deliver: cb.Deliver})
			lost := false
			p.dropAB = func(pkt *wire.Packet) bool {
				drop := pkt.Type.IsData() && pkt.RSN == 1 && !lost
				lost = lost || drop
				return drop
			}
			refuse := map[uint64]DeliverVerdictKind{2: DeliverNoResources, 3: DeliverRNR}
			p.verdictAtB = func(pkt *wire.Packet) DeliverVerdict {
				kind := refuse[pkt.RSN]
				delete(refuse, pkt.RSN)
				return DeliverVerdict{Kind: kind}
			}
			p.rsnB = 1
			for rsn := uint64(1); rsn <= 3; rsn++ {
				p.a.SendPacket(dataPacket(rsn, wire.TypePushData, 4096))
			}
			p.b.SendPacket(dataPacket(0, wire.TypePushData, 4096))
			p.s.Run()
			st := p.a.Stats
			if st.DataRetransmits == 0 || st.NacksResource != 1 || st.NacksRnr != 1 ||
				len(p.deliveredAtA) != 1 || p.a.Outstanding() != 0 || p.a.Failed() {
				t.Fatalf("bare sender: %+v, %d delivered to it, %d outstanding",
					st, len(p.deliveredAtA), p.a.Outstanding())
			}
		}
		p.dropAB = func(pkt *wire.Packet) bool { return true } // black hole
		p.a.SendPacket(dataPacket(4, wire.TypePushData, 4096))
		p.s.Run()
		if !p.a.Failed() {
			t.Fatalf("bare=%v: connection never failed against a black hole", bare)
		}
		if !bare && failedErr == nil {
			t.Fatal("the Failed callback never ran")
		}
		if p.a.Stats.RTOs < maxConsecutiveRTOs {
			t.Fatalf("bare=%v: RTOs = %d, want >= budget", bare, p.a.Stats.RTOs)
		}
		// Subsequent sends and arrivals are ignored without panic.
		p.a.SendPacket(dataPacket(5, wire.TypePushData, 4096))
		p.a.HandlePacket(&wire.Packet{Type: wire.TypeAck}, 1)
		p.s.Run()
	}
}

// TestRTOBudgetResetsOnProgress sends five packets one after another,
// each once the one before is acknowledged, and drops every transmission
// of each until maxConsecutiveRTOs−1 timeouts have fired for it: the run
// takes more RTOs than the budget in all, but ACK progress resets the
// count, so no failure.
func TestRTOBudgetResetsOnProgress(t *testing.T) {
	p := newPair(t, DefaultConfig())
	p.dropAB = func(pkt *wire.Packet) bool {
		return pkt.Type.IsData() && p.a.consecRTOs < maxConsecutiveRTOs-1
	}
	failed := false
	callbacks(p.a).Failed = func(error) { failed = true }
	const n = 5
	next := uint64(1)
	callbacks(p.a).PacketAcked = func(wire.Space, uint32, uint64, wire.Type) {
		if next < n {
			p.a.SendPacket(dataPacket(next, wire.TypePushData, 4096))
			next++
		}
	}
	p.a.SendPacket(dataPacket(0, wire.TypePushData, 4096))
	p.s.Run()
	if failed {
		t.Fatal("connection failed despite eventual progress")
	}
	if len(p.deliveredAtB) != n {
		t.Fatalf("delivered %d of %d", len(p.deliveredAtB), n)
	}
	if st := p.a.Stats; st.RTOs <= maxConsecutiveRTOs || st.MaxConsecRTOs != maxConsecutiveRTOs-1 {
		t.Fatalf("RTOs = %d (max consecutive %d), want more than the budget %d in all and %d in a row",
			st.RTOs, st.MaxConsecRTOs, maxConsecutiveRTOs, maxConsecutiveRTOs-1)
	}
}

// TestPropertyExactlyOnceUnderChaos drives the connection through a hostile
// channel — random drops, reordering and duplication in both directions —
// and asserts the end-to-end invariants: every transaction is delivered to
// the receiving TL exactly once, and the sender's scoreboard drains.
func TestPropertyExactlyOnceUnderChaos(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		p := newPair(t, DefaultConfig())
		rng := p.s.Rand()
		chaos := func(orig func(*wire.Packet) bool) func(*wire.Packet) bool {
			return func(pkt *wire.Packet) bool {
				return rng.Float64() < 0.15 // 15% loss each way
			}
		}
		p.dropAB = chaos(nil)
		p.dropBA = chaos(nil)
		p.delayAB = func(pkt *wire.Packet) time.Duration {
			if rng.Float64() < 0.2 {
				return time.Duration(rng.Intn(30000)) // up to 30us extra
			}
			return 0
		}
		// Duplicate some transmissions.
		origSend := callbacks(p.a).Send
		callbacks(p.a).Send = func(pkt *wire.Packet) {
			origSend(pkt)
			if pkt.Type.IsData() && rng.Float64() < 0.1 {
				origSend(pkt)
			}
		}
		const n = 120
		for i := 0; i < n; i++ {
			p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
		}
		p.s.Run()
		if p.a.Outstanding() != 0 {
			t.Fatalf("seed %d: outstanding = %d after drain", seed, p.a.Outstanding())
		}
		seen := map[uint64]int{}
		for _, pkt := range p.deliveredAtB {
			seen[pkt.RSN]++
		}
		if len(seen) != n {
			t.Fatalf("seed %d: delivered %d distinct RSNs of %d", seed, len(seen), n)
		}
		for rsn, count := range seen {
			if count != 1 {
				t.Fatalf("seed %d: RSN %d delivered %d times", seed, rsn, count)
			}
		}
	}
}

// TestStrayNackOnUnusedSpace feeds ACKs and NACKs that name PSNs in a
// sequence space the connection never sent in: a fresh connection (both
// spaces unused) and one that has only sent requests. Each is unknown
// traffic: counted, ignored, and never a panic or a scoreboard change.
func TestStrayNackOnUnusedSpace(t *testing.T) {
	for _, sendRequests := range []bool{false, true} {
		p := newPair(t, DefaultConfig())
		if sendRequests {
			for i := 0; i < 4; i++ {
				p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 1024))
			}
			p.s.Run()
		}
		type space struct {
			base, next  uint32
			outstanding int
			ring        int
		}
		snapshot := func() (out [wire.NumSpaces]space) {
			for sp := range out {
				base, next, outstanding := p.a.TxState(wire.Space(sp))
				out[sp] = space{base, next, outstanding, len(p.a.tx[sp].pkts)}
			}
			return out
		}
		before := snapshot()
		nacks := p.a.Stats.NacksReceived

		stray := []wire.Space{wire.SpaceResponse}
		if !sendRequests {
			stray = append(stray, wire.SpaceRequest)
		}
		codes := []wire.NackCode{wire.NackResourceExhausted, wire.NackRNR, wire.NackCIE}
		for _, sp := range stray {
			for _, code := range codes {
				p.a.HandlePacket(&wire.Packet{Type: wire.TypeNack, Space: sp, PSN: 3, RSN: 3, NackCode: code}, 1)
			}
		}
		ack := &wire.Packet{Type: wire.TypeAck}
		ack.Resp = wire.AckInfo{Base: 5, Bitmap: wire.Bitmap{0b1011, 1}}
		if !sendRequests {
			ack.Req = ack.Resp
		}
		p.a.HandlePacket(ack, 1)
		p.s.Run()

		if after := snapshot(); after != before {
			t.Errorf("sendRequests=%v: scoreboard moved: %+v, want %+v", sendRequests, after, before)
		}
		if got, want := p.a.Stats.NacksReceived-nacks, uint64(len(stray)*len(codes)); got != want {
			t.Errorf("sendRequests=%v: NacksReceived grew by %d, want %d", sendRequests, got, want)
		}
	}
}

// TestRetransmitUnsharesOnlyWhileShared checks that a retransmission is
// stamped into a private copy only while the wire still holds the earlier
// transmission, and otherwise reuses the PDL's own packet. The earlier
// transmission keeps the stamps it went out with.
func TestRetransmitUnsharesOnlyWhileShared(t *testing.T) {
	for _, wireHolds := range []bool{true, false} {
		s := sim.New(1)
		pool := wire.NewPacketPool()
		var sent []*wire.Packet
		var t1, flags []uint64
		c := NewConn(s, 1, DefaultConfig(), &Callbacks{
			Send: func(p *wire.Packet) {
				sent = append(sent, p)
				t1, flags = append(t1, uint64(p.T1)), append(flags, uint64(p.Flags))
				if wireHolds {
					pool.Share(p) // in flight, and never delivered
				}
			},
			Deliver:        func(*wire.Packet) DeliverVerdict { return DeliverVerdict{} },
			PacketAcked:    func(wire.Space, uint32, uint64, wire.Type) {},
			Completed:      func(uint64) {},
			NackReceived:   func(*wire.Packet) {},
			Failed:         func(error) {},
			PostEvent:      func(fae.Event) {},
			RxBufOccupancy: func() float64 { return 0 },
			CompletedRSN:   func() uint64 { return 0 },
		})
		c.SetPacketPool(pool)
		p := pool.Acquire()
		p.Type, p.Length = wire.TypePushData, 100
		c.SendPacket(p)
		for len(sent) < 2 && s.Now() < sim.Time(10*time.Millisecond) {
			s.RunUntil(s.Now().Add(time.Microsecond))
		}
		if len(sent) < 2 {
			t.Fatalf("wire holds %v: %d transmissions, want a retransmission", wireHolds, len(sent))
		}
		if copied := sent[1] != sent[0]; copied != wireHolds {
			t.Fatalf("wire holds %v: retransmission copied %v, want %v", wireHolds, copied, wireHolds)
		}
		if wireHolds && (uint64(sent[0].T1) != t1[0] || uint64(sent[0].Flags) != flags[0]) {
			t.Fatalf("the transmission in flight was restamped: T1 %d flags %#x, sent with %d %#x",
				sent[0].T1, sent[0].Flags, t1[0], flags[0])
		}
		if sent[1].Flags&(wire.FlagRetransmit|wire.FlagTLP) == 0 {
			t.Fatalf("wire holds %v: second transmission flags %#x carry no retransmit or TLP mark", wireHolds, sent[1].Flags)
		}
	}
}

// TestFractionalWindowPacing drives the live pacing path: with the
// effective window held below one packet (FAE responses cut off), each
// data packet leaves srtt/window after the one before it, srtt being the
// sender's estimate when that one left, and a gap longer than
// maxRTOBackoff is clamped to it.
func TestFractionalWindowPacing(t *testing.T) {
	for _, tc := range []struct {
		wnd     float64
		latency time.Duration
		clamped bool
	}{
		{wnd: 0.25, latency: 5 * time.Microsecond},
		// Both round trips stay under the initial TLP timeout, which no
		// FAE response shortens here, so nothing is probed.
		{wnd: 0.001, latency: 40 * time.Microsecond, clamped: true},
	} {
		cfg := DefaultConfig()
		cfg.NumFlows = 1
		p := newPair(t, cfg)
		p.latency = tc.latency
		// A sender with no FAE callback: the adapter makes Post a no-op,
		// and the sender must still sample RTT.
		cb := *callbacks(p.a)
		cb.PostEvent = nil
		p.a = NewConn(p.s, 1, cfg, &cb)
		p.a.flows[0].fcwnd = tc.wnd
		type send struct {
			at   sim.Time
			srtt time.Duration
		}
		var sends []send
		origSend := callbacks(p.a).Send
		callbacks(p.a).Send = func(pkt *wire.Packet) {
			if pkt.Type.IsData() {
				sends = append(sends, send{p.s.Now(), p.a.SRTT()})
			}
			origSend(pkt)
		}
		const n = 6
		for i := 0; i < n; i++ {
			p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
		}
		p.s.Run()
		if len(sends) != n || len(p.deliveredAtB) != n || p.a.Stats.DataRetransmits != 0 {
			t.Fatalf("window %v: %d sends, %d delivered, %d retransmits; want %d, %d, 0",
				tc.wnd, len(sends), len(p.deliveredAtB), p.a.Stats.DataRetransmits, n, n)
		}
		if p.a.EffectiveWindow() != tc.wnd {
			t.Fatalf("effective window moved to %v", p.a.EffectiveWindow())
		}
		if p.a.SRTT() <= 0 {
			t.Fatalf("window %v: SRTT() = %v without a PostEvent callback", tc.wnd, p.a.SRTT())
		}
		checked := 0
		for i := 1; i < n; i++ {
			prev := sends[i-1]
			if prev.srtt == 0 {
				continue // no RTT sample yet: the gap derives from the TLP timeout
			}
			checked++
			want := time.Duration(float64(prev.srtt) / tc.wnd)
			if tc.clamped {
				if want <= maxRTOBackoff {
					t.Fatalf("window %v: srtt %v gives a gap %v that needs no clamp", tc.wnd, prev.srtt, want)
				}
				want = maxRTOBackoff
			}
			if got := sends[i].at.Sub(prev.at); got != want {
				t.Errorf("window %v: packet %d left %v after packet %d, want %v (srtt %v)",
					tc.wnd, i, got, i-1, want, prev.srtt)
			}
		}
		if checked < 3 {
			t.Fatalf("window %v: only %d gaps followed an RTT sample", tc.wnd, checked)
		}
	}
}
