package pdl

import (
	"math/bits"
	"testing"

	"falcon/internal/falcon/wire"
)

// FuzzSACKScan differentially tests the word-at-a-time SACK scoreboard
// scan the recovery path uses (LowMask window clamp, AndNot masking,
// TrailingZeros64 set-bit iteration) against the obvious per-PSN loop it
// replaced, across arbitrary bitmap contents, window widths, and TX bases
// including uint32 PSN wrap. The two iterations must visit exactly the
// same PSNs in exactly the same (ascending-offset) order, and the scalar
// bitmap reductions (LeadingRun, HighestSet, OnesCount) must agree with
// their bit-by-bit definitions. The same window is then transmitted into a
// scoreboard ring that starts at minRing and grows as it fills: every PSN
// in it, and so every PSN the scan visits, must resolve to its own slot,
// holding the packet stamped with that PSN, after any grow moved it.
func FuzzSACKScan(f *testing.F) {
	f.Add(uint32(0), uint64(0), uint64(0), uint64(0), uint64(0), uint16(0))
	f.Add(uint32(100), ^uint64(0), ^uint64(0), uint64(0), uint64(0), uint16(128))
	f.Add(uint32(0xffffffff), uint64(0x5555555555555555), uint64(0xaaaaaaaaaaaaaaaa), uint64(0xff), uint64(0), uint16(128))
	f.Add(uint32(0xfffffff0), uint64(1)<<63, uint64(1), uint64(0), uint64(1)<<63, uint16(90))
	f.Add(uint32(0xfffffffe), uint64(0xdeadbeefcafebabe), uint64(0x0123456789abcdef), uint64(0xffff0000ffff0000), uint64(3), uint16(300))
	f.Add(uint32(7), uint64(0), uint64(1)<<63, uint64(0), uint64(0), uint16(127))

	f.Fuzz(func(t *testing.T, base uint32, s0, s1, a0, a1 uint64, winRaw uint16) {
		win := int(winRaw) % (wire.BitmapBits + 16) // exercise the >128 clamp too
		sacked := wire.Bitmap{s0, s1}
		acked := wire.Bitmap{a0, a1}

		// Word path, exactly as recovery.go iterates a scoreboard: clamp
		// the candidate set to the live window, mask out acked PSNs, then
		// walk set bits ascending with TrailingZeros64.
		notWin := wire.LowMask(wire.BitmapBits).AndNot(wire.LowMask(win))
		cand := sacked.AndNot(acked).AndNot(notWin)
		var fast []uint32
		for k := 0; k < 2; k++ {
			hi := 64 * k
			for w := cand[k]; w != 0; w &= w - 1 {
				o := hi + bits.TrailingZeros64(w)
				fast = append(fast, base+uint32(o))
			}
		}

		// Naive path: test every PSN offset in the window one bit at a
		// time.
		var slow []uint32
		for i := 0; i < win && i < wire.BitmapBits; i++ {
			if sacked.Get(i) && !acked.Get(i) {
				slow = append(slow, base+uint32(i))
			}
		}

		if len(fast) != len(slow) {
			t.Fatalf("scan length: word %d naive %d (sacked=%v acked=%v win=%d base=%#x)",
				len(fast), len(slow), sacked, acked, win, base)
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("scan[%d]: word %#x naive %#x (sacked=%v acked=%v win=%d base=%#x)",
					i, fast[i], slow[i], sacked, acked, win, base)
			}
		}

		// Ring growth mid-sequence, across the wrap when base is near it.
		ts := &txSpace{base: base, next: base, pkts: make([]txPacket, minRing)}
		n := min(win, wire.BitmapBits)
		pkts := make([]wire.Packet, n)
		for o := 0; o < n; o++ {
			if int(ts.next-ts.base) == len(ts.pkts) {
				ts.grow(wire.BitmapBits)
			}
			psn := ts.next
			ts.next++
			pkts[o].PSN = psn
			*ts.slot(psn) = txPacket{pkt: &pkts[o], retx: uint16(o)}
		}
		ring := minRing
		for ring < n {
			ring *= 2
		}
		if len(ts.pkts) != ring {
			t.Fatalf("ring of %d after tracking %d PSNs from %d, want %d", len(ts.pkts), n, minRing, ring)
		}
		for o := 0; o < n; o++ {
			psn := base + uint32(o)
			if tp := ts.slot(psn); tp.pkt != &pkts[o] || tp.pkt.PSN != psn || int(tp.retx) != o {
				t.Fatalf("PSN %#x (offset %d) resolves to %+v after growing to %d (base=%#x)", psn, o, *tp, len(ts.pkts), base)
			}
		}

		// Scalar reductions against their definitions.
		run := 0
		for run < wire.BitmapBits && sacked.Get(run) {
			run++
		}
		if got := sacked.LeadingRun(); got != run {
			t.Fatalf("LeadingRun: word %d naive %d (%v)", got, run, sacked)
		}
		highest := -1
		for i := 0; i < wire.BitmapBits; i++ {
			if sacked.Get(i) {
				highest = i
			}
		}
		if got := sacked.HighestSet(); got != highest {
			t.Fatalf("HighestSet: word %d naive %d (%v)", got, highest, sacked)
		}
		ones := 0
		for i := 0; i < wire.BitmapBits; i++ {
			if sacked.Get(i) {
				ones++
			}
		}
		if got := sacked.OnesCount(); got != ones {
			t.Fatalf("OnesCount: word %d naive %d (%v)", got, ones, sacked)
		}

		// ShiftRight (base advance) against a per-bit model.
		shift := win % (wire.BitmapBits + 8)
		shifted := sacked
		shifted.ShiftRight(shift)
		for i := 0; i < wire.BitmapBits; i++ {
			want := sacked.Get(i + shift)
			if shift <= 0 {
				want = sacked.Get(i)
			}
			if shifted.Get(i) != want {
				t.Fatalf("ShiftRight(%d) bit %d: got %v want %v (%v)", shift, i, shifted.Get(i), want, sacked)
			}
		}
	})
}
