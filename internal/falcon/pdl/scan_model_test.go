package pdl

import (
	"fmt"
	"math/rand"
	"testing"

	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// The per-PSN reference model for the scoreboard scans. processAckInfo,
// slideBase and highestUnacked walk the acked mirror a word at a time; the
// model below is the plain loop over PSNs they replaced. It reads the
// per-slot flags rather than the mirror, so it also checks that the mirror
// matches the slots it describes.

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

// modelSlideBase advances the base one acked slot at a time.
func modelSlideBase(ts *txSpace) {
	for ts.base != ts.next {
		tp := ts.slot(ts.base)
		if !tp.live || !tp.acked {
			break
		}
		ts.advanceTo(ts.base + 1)
	}
}

// modelHighestUnacked walks down from next to the first unacked slot.
func modelHighestUnacked(ts *txSpace) *txPacket {
	for psn := ts.next; psn != ts.base; psn-- {
		tp := ts.slot(psn - 1)
		if tp.live && !tp.acked {
			return tp
		}
	}
	return nil
}

// scanConn is a connection with a random scoreboard and a log of the
// PacketAcked upcalls, in call order (TL completion order follows it).
type scanConn struct {
	c     *Conn
	acked []string
}

// newScanConn builds the scoreboard seed describes, so two calls with one
// seed give identical connections. Each space gets a base that is often
// just below the uint32 PSN wrap, a window of 0..WindowSize transmitted
// PSNs whose acked and nacked flags (each space its own density) are
// mirrored into the bitmaps, and slots outside the window left over from
// the previous lap.
func newScanConn(seed int64) *scanConn {
	rng := rand.New(rand.NewSource(seed))
	sc := &scanConn{}
	sc.c = NewConn(sim.New(1), 1, DefaultConfig(), Callbacks{
		PacketAcked: func(space wire.Space, psn uint32, rsn uint64, typ wire.Type) {
			sc.acked = append(sc.acked, fmt.Sprintf("%v/%#x/%d/%v", space, psn, rsn, typ))
		},
	})
	c := sc.c
	for _, ts := range c.tx {
		ts.base = rng.Uint32()
		if rng.Intn(2) == 0 {
			ts.base = ^uint32(0) - uint32(rng.Intn(2*wire.BitmapBits))
		}
		n := rng.Intn(len(ts.pkts) + 1)
		ts.next = ts.base + uint32(n)
		ackP := rng.Float64()
		for o := 0; o < len(ts.pkts); o++ {
			psn := ts.base + uint32(o)
			tp := ts.slot(psn)
			if o >= n {
				*tp = txPacket{psn: psn - uint32(len(ts.pkts)), live: rng.Intn(4) != 0, acked: true}
				continue
			}
			*tp = txPacket{
				psn:    psn,
				rsn:    uint64(rng.Intn(1 << 20)),
				txTime: sim.Time(1 + rng.Intn(1_000_000)),
				flow:   int32(rng.Intn(len(c.flows))),
				typ:    wire.TypePushData,
				live:   true,
				acked:  rng.Float64() < ackP,
			}
			if tp.acked {
				ts.acked.Set(o)
				continue
			}
			tp.nacked = rng.Intn(4) == 0
			if tp.nacked {
				ts.nackedB.Set(o)
				ts.parked++
			}
			ts.outstanding++
			c.flows[tp.flow].outstanding++
		}
	}
	return sc
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

func psnOf(tp *txPacket) string {
	if tp == nil {
		return "none"
	}
	return fmt.Sprintf("%#x", tp.psn)
}

// diffScan fails the test at the first field where the two connections'
// scoreboards part.
func diffScan(t *testing.T, what string, live, model *scanConn) {
	t.Helper()
	for sp := range live.c.tx {
		a, b := live.c.tx[sp], model.c.tx[sp]
		if a.base != b.base || a.next != b.next || a.acked != b.acked || a.nackedB != b.nackedB ||
			a.outstanding != b.outstanding || a.parked != b.parked {
			t.Fatalf("%s: space %d window: live base=%#x next=%#x acked=%v nacked=%v out=%d parked=%d, model base=%#x next=%#x acked=%v nacked=%v out=%d parked=%d",
				what, sp, a.base, a.next, a.acked, a.nackedB, a.outstanding, a.parked,
				b.base, b.next, b.acked, b.nackedB, b.outstanding, b.parked)
		}
		for i := range a.pkts {
			if a.pkts[i] != b.pkts[i] {
				t.Fatalf("%s: space %d slot %d: live %+v, model %+v", what, sp, i, a.pkts[i], b.pkts[i])
			}
		}
		if got, want := psnOf(a.highestUnacked()), psnOf(modelHighestUnacked(b)); got != want {
			t.Fatalf("%s: space %d highestUnacked: live %s, model %s", what, sp, got, want)
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
// per-flow counts, the same base, mirrors, slots and flow state, and the
// same TLP probe target, over a chain of ACKs per space.
func TestScanMatchesPerPSNModel(t *testing.T) {
	for seed := int64(1); seed <= 3000; seed++ {
		live, model := newScanConn(seed), newScanConn(seed)
		diffScan(t, fmt.Sprintf("seed %d initial", seed), live, model)
		rng := rand.New(rand.NewSource(-seed))
		for step := 0; step < 4; step++ {
			for sp := range live.c.tx {
				info := randomAck(rng, live.c.tx[sp])
				perLive := make([]int, len(live.c.flows))
				perModel := make([]int, len(model.c.flows))
				gotP := live.c.processAckInfo(live.c.tx[sp], info, perLive)
				wantP := modelProcessAckInfo(model.c, model.c.tx[sp], info, perModel)
				what := fmt.Sprintf("seed %d step %d space %d ack base=%#x bitmap=%v", seed, step, sp, info.Base, info.Bitmap)
				if gotP != wantP || fmt.Sprint(perLive) != fmt.Sprint(perModel) {
					t.Fatalf("%s: progress/per-flow: live %v %v, model %v %v", what, gotP, perLive, wantP, perModel)
				}
				diffScan(t, what, live, model)
			}
		}
	}
}
