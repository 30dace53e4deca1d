package pdl

import (
	"fmt"
	"math/rand"
	"testing"

	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// The per-PSN reference model for the scoreboard scans. processAckInfo,
// slideBase and highestUnacked walk the acked bitmap a word at a time; the
// model below is the plain loop over PSNs they replaced, reading the
// bitmap one PSN at a time.

// modelProcessAckInfo marks the cumulative range PSN by PSN, then every
// set bit of the wire bitmap that falls in the live window, then slides
// the base.
func modelProcessAckInfo(c *Conn, ts *txSpace, info wire.AckInfo, perFlow []int) bool {
	progress := false
	if int32(info.Base-ts.base) > 0 {
		for psn := ts.base; psn != info.Base && psn != ts.next; psn++ {
			if c.markAcked(ts, psn, perFlow) {
				progress = true
			}
		}
		if int32(info.Base-ts.next) <= 0 {
			ts.advanceTo(info.Base)
		} else {
			ts.advanceTo(ts.next)
		}
	}
	for i := 0; i < wire.BitmapBits; i++ {
		if !info.Bitmap.Get(i) {
			continue
		}
		psn := info.Base + uint32(i)
		if int32(psn-ts.base) < 0 || int32(psn-ts.next) >= 0 {
			continue
		}
		if c.markAcked(ts, psn, perFlow) {
			progress = true
		}
	}
	modelSlideBase(ts)
	return progress
}

// modelSlideBase advances the base one acked PSN at a time.
func modelSlideBase(ts *txSpace) {
	for ts.base != ts.next && ts.acked.Get(0) {
		ts.advanceTo(ts.base + 1)
	}
}

// modelHighestUnacked walks down from next to the first unacked PSN.
func modelHighestUnacked(ts *txSpace) (uint32, bool) {
	for psn := ts.next; psn != ts.base; psn-- {
		if !ts.acked.Get(int(psn - 1 - ts.base)) {
			return psn - 1, true
		}
	}
	return 0, false
}

// scanConn is a connection with a random scoreboard and a log of the
// PacketAcked upcalls, in call order (TL completion order follows it).
type scanConn struct {
	c     *Conn
	acked []string
}

// newScanConn builds the scoreboard seed describes, so two calls with one
// seed give identical connections. Each space gets a base that is often
// just below the uint32 PSN wrap and a window of 0..WindowSize transmitted
// PSNs, tracked from the minimum ring up, acked and parked at random (each
// space its own density); the ring's slots outside the window are left
// over from the previous lap, acked and holding no packet.
func newScanConn(seed int64) *scanConn {
	rng := rand.New(rand.NewSource(seed))
	sc := &scanConn{}
	sc.c = NewConn(sim.New(1), 1, DefaultConfig(), &Callbacks{
		PacketAcked: func(space wire.Space, psn uint32, rsn uint64, typ wire.Type) {
			sc.acked = append(sc.acked, fmt.Sprintf("%v/%#x/%d/%v", space, psn, rsn, typ))
		},
	})
	c := sc.c
	for i := range c.tx {
		ts := &c.tx[i]
		ts.base = rng.Uint32()
		if rng.Intn(2) == 0 {
			ts.base = ^uint32(0) - uint32(rng.Intn(2*wire.BitmapBits))
		}
		ts.next = ts.base
		n := rng.Intn(c.cfg.WindowSize + 1)
		ackP := rng.Float64()
		for o := 0; o < n; o++ {
			track(c, ts, rng, ackP, 0.25)
		}
		for o := n; o < len(ts.pkts); o++ {
			psn := ts.base + uint32(o)
			*ts.slot(psn) = txPacket{txTime: sim.Time(rng.Intn(1_000_000)), flow: uint8(rng.Intn(len(c.flows)))}
		}
	}
	return sc
}

// track appends one transmitted PSN to ts's window, growing the ring when
// it is full as transmitNext does. The packet is acked with probability
// ackP, leaving its slot without a packet, and otherwise parked with
// probability nackP; an in-flight slot holds a packet carrying its PSN,
// RSN and type. The bitmaps and per-flow state follow.
func track(c *Conn, ts *txSpace, rng *rand.Rand, ackP, nackP float64) {
	if int(ts.next-ts.base) == len(ts.pkts) {
		ts.grow(c.cfg.WindowSize)
	}
	psn := ts.next
	o := int(psn - ts.base)
	ts.next++
	tp := ts.slot(psn)
	*tp = txPacket{
		pkt:    &wire.Packet{PSN: psn, RSN: uint64(rng.Intn(1 << 20)), Type: wire.TypePushData},
		txTime: sim.Time(1 + rng.Intn(1_000_000)),
		flow:   uint8(rng.Intn(len(c.flows))),
	}
	if rng.Float64() < ackP {
		tp.pkt = nil
		ts.acked.Set(o)
		return
	}
	if rng.Float64() < nackP {
		ts.nackedB.Set(o)
	}
	c.flows[tp.flow].outstanding++
}

// randomAck draws an ACK for ts: a cumulative base from a little below the
// window to a little past it, and a full, sparse or empty bitmap.
func randomAck(rng *rand.Rand, ts *txSpace) wire.AckInfo {
	n := int(ts.next - ts.base)
	info := wire.AckInfo{Base: ts.base + uint32(rng.Intn(n+41)-20)}
	switch rng.Intn(3) {
	case 0:
		info.Bitmap = wire.Bitmap{rng.Uint64(), rng.Uint64()}
	case 1:
		info.Bitmap = wire.Bitmap{rng.Uint64() & rng.Uint64() & rng.Uint64(), rng.Uint64() & rng.Uint64()}
	}
	return info
}

// sameSlot compares two slots by value, and the PSN, RSN and type of the
// packets they hold.
func sameSlot(a, b txPacket) bool {
	if (a.pkt == nil) != (b.pkt == nil) ||
		a.pkt != nil && (a.pkt.PSN != b.pkt.PSN || a.pkt.RSN != b.pkt.RSN || a.pkt.Type != b.pkt.Type) {
		return false
	}
	a.pkt, b.pkt = nil, nil
	return a == b
}

// diffScan fails the test at the first field where the two connections'
// scoreboards part.
func diffScan(t *testing.T, what string, live, model *scanConn) {
	t.Helper()
	for sp := range live.c.tx {
		a, b := &live.c.tx[sp], &model.c.tx[sp]
		if len(a.pkts) != len(b.pkts) {
			t.Fatalf("%s: space %d ring: live %d slots, model %d", what, sp, len(a.pkts), len(b.pkts))
		}
		if a.base != b.base || a.next != b.next || a.acked != b.acked || a.nackedB != b.nackedB {
			t.Fatalf("%s: space %d window: live base=%#x next=%#x acked=%v nacked=%v, model base=%#x next=%#x acked=%v nacked=%v",
				what, sp, a.base, a.next, a.acked, a.nackedB, b.base, b.next, b.acked, b.nackedB)
		}
		for i := range a.pkts {
			if !sameSlot(a.pkts[i], b.pkts[i]) {
				t.Fatalf("%s: space %d slot %d: live %+v, model %+v", what, sp, i, a.pkts[i], b.pkts[i])
			}
		}
		gotPSN, gotOK := a.highestUnacked()
		wantPSN, wantOK := modelHighestUnacked(b)
		if gotOK != wantOK || gotOK && gotPSN != wantPSN {
			t.Fatalf("%s: space %d highestUnacked: live %#x %v, model %#x %v", what, sp, gotPSN, gotOK, wantPSN, wantOK)
		}
	}
	for f := range live.c.flows {
		if live.c.flows[f] != model.c.flows[f] {
			t.Fatalf("%s: flow %d: live %+v, model %+v", what, f, live.c.flows[f], model.c.flows[f])
		}
	}
	if fmt.Sprint(live.acked) != fmt.Sprint(model.acked) {
		t.Fatalf("%s: PacketAcked order:\n  live  %v\n  model %v", what, live.acked, model.acked)
	}
}

// TestScanMatchesPerPSNModel holds processAckInfo (with the slideBase it
// ends in) and highestUnacked to the per-PSN model on random scoreboards:
// the same PSNs acknowledged in the same order, the same progress and
// per-flow counts, the same base, bitmaps, slots and flow state, and the
// same TLP probe target, over a chain of ACKs per space. Between ACKs both
// connections transmit a few more PSNs, so rings grow mid-sequence, some
// of them with the window straddling the uint32 PSN wrap.
func TestScanMatchesPerPSNModel(t *testing.T) {
	grows, wrapGrows := 0, 0
	for seed := int64(1); seed <= 3000; seed++ {
		live, model := newScanConn(seed), newScanConn(seed)
		diffScan(t, fmt.Sprintf("seed %d initial", seed), live, model)
		rng := rand.New(rand.NewSource(-seed))
		for step := 0; step < 4; step++ {
			for sp := range live.c.tx {
				info := randomAck(rng, &live.c.tx[sp])
				perLive := make([]int, len(live.c.flows))
				perModel := make([]int, len(model.c.flows))
				gotP := live.c.processAckInfo(&live.c.tx[sp], info, perLive)
				wantP := modelProcessAckInfo(model.c, &model.c.tx[sp], info, perModel)
				what := fmt.Sprintf("seed %d step %d space %d ack base=%#x bitmap=%v", seed, step, sp, info.Base, info.Bitmap)
				if gotP != wantP || fmt.Sprint(perLive) != fmt.Sprint(perModel) {
					t.Fatalf("%s: progress/per-flow: live %v %v, model %v %v", what, gotP, perLive, wantP, perModel)
				}
				diffScan(t, what, live, model)

				ts := &live.c.tx[sp]
				before := len(ts.pkts)
				k, sendSeed := rng.Intn(2*minRing), rng.Int63()
				for _, sc := range []*scanConn{live, model} {
					r := rand.New(rand.NewSource(sendSeed))
					for i := 0; i < k && int(sc.c.tx[sp].next-sc.c.tx[sp].base) < sc.c.cfg.WindowSize; i++ {
						track(sc.c, &sc.c.tx[sp], r, 0, 0)
					}
				}
				if len(ts.pkts) != before {
					grows++
					if ts.next < ts.base {
						wrapGrows++
					}
				}
				diffScan(t, what+", then sent", live, model)
			}
		}
	}
	if grows == 0 || wrapGrows == 0 {
		t.Fatalf("rings grew %d times between ACKs, %d of them across the PSN wrap: want both", grows, wrapGrows)
	}
}
