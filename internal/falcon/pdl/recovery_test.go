package pdl

import (
	"testing"
	"time"

	"falcon/internal/falcon/wire"
)

// TestTLPSingleOutstandingPacket covers the degenerate RACK-TLP case: with
// exactly one packet outstanding there is no "later delivery" for RACK to
// reason from, so a lost sole packet is recoverable only by the tail probe.
func TestTLPSingleOutstandingPacket(t *testing.T) {
	p := newPair(t, DefaultConfig())
	dropped := false
	p.dropAB = func(pkt *wire.Packet) bool {
		if pkt.Type.IsData() && !dropped {
			dropped = true
			return true
		}
		return false
	}
	p.a.SendPacket(dataPacket(0, wire.TypePushData, 4096))
	p.s.Run()
	if len(p.deliveredAtB) != 1 {
		t.Fatalf("delivered %d of 1", len(p.deliveredAtB))
	}
	if p.a.Stats.TLPProbes == 0 {
		t.Fatal("sole-packet loss should be recovered by the tail probe")
	}
	if p.a.Stats.RTOs != 0 {
		t.Fatalf("fell back to RTO (%d) with TLP armed", p.a.Stats.RTOs)
	}
	if p.a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", p.a.Outstanding())
	}
}

// TestPSNWindowWrapAround starts both sequence-space counters a few PSNs
// below the uint32 wrap and drives traffic (with a mid-wrap loss) across
// the boundary: window arithmetic, the scoreboard ring, RACK and the RTO
// scan must all use serial arithmetic, never absolute comparisons.
func TestPSNWindowWrapAround(t *testing.T) {
	start := ^uint32(0) - 5 // 6 PSNs before wrap
	cfg := DefaultConfig()
	p := newPair(t, cfg)
	for _, space := range []wire.Space{wire.SpaceRequest, wire.SpaceResponse} {
		p.a.tx[space].base, p.a.tx[space].next = start, start
		p.b.rx[space].base = start
	}
	dropped := false
	p.dropAB = func(pkt *wire.Packet) bool {
		// Drop the first transmission of the PSN just past the wrap.
		if pkt.Type.IsData() && pkt.PSN == 1 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	const n = 20
	for i := 0; i < n; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(p.deliveredAtB) != n {
		t.Fatalf("delivered %d of %d across PSN wrap", len(p.deliveredAtB), n)
	}
	seen := map[uint64]int{}
	for _, pkt := range p.deliveredAtB {
		seen[pkt.RSN]++
	}
	for rsn, c := range seen {
		if c != 1 {
			t.Fatalf("RSN %d delivered %d times across wrap", rsn, c)
		}
	}
	if p.a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain", p.a.Outstanding())
	}
	if base := p.a.tx[wire.SpaceRequest].base; base != start+n {
		t.Fatalf("tx base = %d, want %d (wrapped)", base, start+n)
	}
	if base := p.b.rx[wire.SpaceRequest].base; base != start+n {
		t.Fatalf("rx base = %d, want %d (wrapped)", base, start+n)
	}
}

// TestOriginalAndRetransmissionBothLost drops the first several
// transmissions of one packet — the original AND its recovery
// retransmissions — and requires the sender to keep escalating (TLP, then
// backed-off RTOs) until a copy lands.
func TestOriginalAndRetransmissionBothLost(t *testing.T) {
	p := newPair(t, DefaultConfig())
	drops := 0
	p.dropAB = func(pkt *wire.Packet) bool {
		if pkt.Type.IsData() && pkt.RSN == 5 && drops < 4 {
			drops++
			return true
		}
		return false
	}
	const n = 10
	for i := 0; i < n; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	p.s.Run()
	if len(p.deliveredAtB) != n {
		t.Fatalf("delivered %d of %d", len(p.deliveredAtB), n)
	}
	if drops != 4 {
		t.Fatalf("channel dropped %d copies, want 4 (original + 3 retransmissions)", drops)
	}
	if p.a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", p.a.Outstanding())
	}
	if p.a.Failed() {
		t.Fatal("connection failed despite eventual delivery")
	}
}

// TestTLPProbesTailNotHead reproduces the head-of-line livelock the fault
// sweeps exposed: the receiver refuses the head packet (resource pressure)
// until it has seen the tail, and the tail's first transmission is lost.
// Probing the head would spin forever; the TLP must probe the tail, whose
// delivery then unblocks the head.
func TestTLPProbesTailNotHead(t *testing.T) {
	p := newPair(t, DefaultConfig())
	tailDropped := false
	p.dropAB = func(pkt *wire.Packet) bool {
		if pkt.Type.IsData() && pkt.RSN == 1 && !tailDropped {
			tailDropped = true
			return true
		}
		return false
	}
	tailSeen := false
	p.verdictAtB = func(pkt *wire.Packet) DeliverVerdict {
		if pkt.RSN == 1 {
			tailSeen = true
		}
		if pkt.RSN == 0 && !tailSeen {
			return DeliverVerdict{Kind: DeliverNoResources}
		}
		return DeliverVerdict{Kind: DeliverAccept}
	}
	p.a.SendPacket(dataPacket(0, wire.TypePushData, 4096))
	p.a.SendPacket(dataPacket(1, wire.TypePushData, 4096))
	p.s.RunUntil(p.s.Now().Add(50 * time.Millisecond))
	if len(p.deliveredAtB) != 2 {
		t.Fatalf("delivered %d of 2 (tail never probed?)", len(p.deliveredAtB))
	}
	if p.a.Failed() {
		t.Fatal("connection failed: recovery never reached the tail packet")
	}
	if p.a.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", p.a.Outstanding())
	}
}

// TestRTORetransmitsAllUnacked verifies the RTO performs a full
// retransmission scan: against a black-holed channel, the first RTO must
// re-send every unacked packet, not just the head of each space. (A lost
// middle packet can otherwise starve: RACK needs a later same-flow
// delivery, the TLP probes only the tail, and NACK backoff only re-sends
// packets the receiver has refused — see the fault-sweep livelock.)
func TestRTORetransmitsAllUnacked(t *testing.T) {
	p := newPair(t, DefaultConfig())
	p.dropAB = func(pkt *wire.Packet) bool { return true } // black hole
	const n = 5
	for i := 0; i < n; i++ {
		p.a.SendPacket(dataPacket(uint64(i), wire.TypePushData, 4096))
	}
	// Run past the first RTO (initial RTO 200us, TLP may fire first).
	p.s.RunUntil(p.s.Now().Add(2 * time.Millisecond))
	if p.a.Stats.RTOs == 0 {
		t.Fatal("RTO never fired against a black hole")
	}
	ts := &p.a.tx[wire.SpaceRequest]
	for psn := ts.base; psn != ts.next; psn++ {
		if !ts.inFlight(psn) {
			continue
		}
		if ts.slot(psn).retx == 0 {
			t.Fatalf("PSN %d never retransmitted after %d RTOs (scan must cover the whole window)",
				psn, p.a.Stats.RTOs)
		}
	}
}

// TestParkedPacketsDoNotConsumeWindow reproduces the resource-NACK window
// deadlock: with a one-packet congestion window occupied by a packet the
// receiver keeps refusing, a queued second packet must still transmit —
// the refused packet is parked (known off the network) and must not count
// against the window. Without parking, RSN 1 would never reach the wire.
func TestParkedPacketsDoNotConsumeWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumFlows = 1
	p := newPair(t, cfg)
	p.verdictAtB = func(pkt *wire.Packet) DeliverVerdict {
		if pkt.RSN == 0 {
			return DeliverVerdict{Kind: DeliverNoResources} // refuse forever
		}
		return DeliverVerdict{Kind: DeliverAccept}
	}
	// Pin the congestion window to a single packet.
	p.a.flows[0].fcwnd = 1
	p.a.ncwnd = 1
	p.a.SendPacket(dataPacket(0, wire.TypePushData, 4096))
	p.a.SendPacket(dataPacket(1, wire.TypePushData, 4096))
	// Bounded run: RSN 0's refuse/backoff cycle never terminates.
	p.s.RunUntil(p.s.Now().Add(5 * time.Millisecond))
	delivered := map[uint64]bool{}
	for _, pkt := range p.deliveredAtB {
		delivered[pkt.RSN] = true
	}
	if !delivered[1] {
		t.Fatal("RSN 1 never transmitted: refused packet still consumes congestion window")
	}
}

// TestNoRetransmitsAfterFailure: once the connection is declared dead, the
// NACK-backoff and TLP timer loops must stop — a failed connection keeping
// the wire busy forever is both wrong and breaks run-to-completion sweeps.
func TestNoRetransmitsAfterFailure(t *testing.T) {
	p := newPair(t, DefaultConfig())
	p.dropAB = func(pkt *wire.Packet) bool { return true } // black hole
	p.a.SendPacket(dataPacket(0, wire.TypePushData, 4096))
	p.s.Run() // terminates only because post-failure loops stop
	if !p.a.Failed() {
		t.Fatal("connection should have failed")
	}
	retxAtDeath := p.a.Stats.DataRetransmits
	p.s.RunUntil(p.s.Now().Add(100 * time.Millisecond))
	if p.a.Stats.DataRetransmits != retxAtDeath {
		t.Fatalf("zombie retransmissions after failure: %d -> %d",
			retxAtDeath, p.a.Stats.DataRetransmits)
	}
}

// TestFailureReleasesQueuedPackets: a connection that dies with packets
// still queued behind its window, in both sequence spaces, returns every
// one of them to the pool and leaves both queues empty.
func TestFailureReleasesQueuedPackets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumFlows = 1
	p := newPair(t, cfg)
	pool := wire.NewPacketPool()
	p.a.SetPacketPool(pool)
	p.dropAB = func(*wire.Packet) bool { return true } // black hole
	p.a.flows[0].fcwnd = 1
	p.a.ncwnd = 1
	for i := 0; i < 10; i++ {
		for _, typ := range []wire.Type{wire.TypePushData, wire.TypePullResponse} {
			pkt := pool.Acquire()
			pkt.Type, pkt.RSN, pkt.Length = typ, uint64(i), 4096
			p.a.SendPacket(pkt)
		}
	}
	if q := p.a.QueuedPackets(); q < 18 {
		t.Fatalf("only %d of 20 packets queued behind a one-packet window", q)
	}
	p.s.Run()
	if !p.a.Failed() {
		t.Fatal("connection should have failed")
	}
	if q := p.a.QueuedPackets(); q != 0 {
		t.Fatalf("%d packets still queued after failure", q)
	}
	if pool.Free() != pool.Allocated() {
		t.Fatalf("%d packets allocated but %d free after failure", pool.Allocated(), pool.Free())
	}
}
