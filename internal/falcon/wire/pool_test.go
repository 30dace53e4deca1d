package wire

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestPoolHolderCounting follows one packet through Acquire, Share and
// Release: it goes back to the free list only when its last holder lets go.
func TestPoolHolderCounting(t *testing.T) {
	pool := NewPacketPool()
	p := pool.Acquire()
	if p.holders != 1 {
		t.Fatalf("acquired packet has %d holders, want 1", p.holders)
	}
	free := pool.Free()
	p.PSN = 7
	if q := pool.Share(p); q != p {
		t.Fatal("Share of a pooled packet returned a different packet")
	}
	if q := pool.Share(p); q != p || p.holders != 3 {
		t.Fatalf("after two shares: same packet %v, %d holders; want true, 3", q == p, p.holders)
	}
	for want := uint32(2); want >= 1; want-- {
		pool.Release(p)
		if p.holders != want || pool.Free() != free || p.PSN != 7 {
			t.Fatalf("released to %d holders: holders %d, free %d (want %d), PSN %d (want 7)",
				want, p.holders, pool.Free(), free, p.PSN)
		}
	}
	pool.Release(p)
	if pool.Free() != free+1 || pool.Free() != pool.Allocated() {
		t.Fatalf("after the last release: free %d, allocated %d; want %d, %d",
			pool.Free(), pool.Allocated(), free+1, free+1)
	}
	if !reflect.DeepEqual(*p, Packet{Holds: Holds{pooled: true}}) {
		t.Fatalf("recycled packet not zeroed: %+v", *p)
	}
	if q := pool.Acquire(); q != p || q.holders != 1 {
		t.Fatalf("reacquired: same packet %v, %d holders; want true, 1", q == p, q.holders)
	}
}

// TestPoolShareHandBuilt checks that a hand-built packet, which cannot
// count holders, is shared as a pooled copy and left as it was.
func TestPoolShareHandBuilt(t *testing.T) {
	pool := NewPacketPool()
	orig := &Packet{Type: TypePushData, PSN: 3, Length: 100, Data: []byte{1, 2}}
	before := *orig
	q := pool.Share(orig)
	if q == orig || !q.pooled || q.holders != 1 {
		t.Fatalf("Share of a hand-built packet: copy %v, pooled %v, %d holders; want true, true, 1",
			q != orig, q.pooled, q.holders)
	}
	if q.Type != orig.Type || q.PSN != orig.PSN || q.Length != orig.Length || &q.Data[0] != &orig.Data[0] {
		t.Fatalf("copy %+v does not carry the original's fields %+v", *q, *orig)
	}
	if orig.pooled || orig.holders != 0 || orig.PSN != before.PSN || orig.Length != before.Length {
		t.Fatalf("Share changed the hand-built packet: %+v, was %+v", *orig, before)
	}
	pool.Release(orig) // ignored: never entered a pool
	pool.Release(q)
	if pool.Free() != pool.Allocated() {
		t.Fatalf("free %d of %d after releasing the copy", pool.Free(), pool.Allocated())
	}
}

// TestPoolUnshare checks that a writer gets the packet itself when it is
// the only holder, and otherwise a private copy that leaves the other
// holders' packet untouched.
func TestPoolUnshare(t *testing.T) {
	pool := NewPacketPool()
	p := pool.Acquire()
	p.PSN = 9
	if q := pool.Unshare(p); q != p || p.holders != 1 {
		t.Fatalf("Unshare by the only holder: same packet %v, %d holders; want true, 1", q == p, p.holders)
	}

	pool.Share(p)
	q := pool.Unshare(p)
	if q == p {
		t.Fatal("Unshare of a shared packet returned the shared packet")
	}
	if p.holders != 1 || q.holders != 1 || !q.pooled || q.PSN != 9 {
		t.Fatalf("after Unshare: original %d holders, copy %d holders, pooled %v, PSN %d; want 1, 1, true, 9",
			p.holders, q.holders, q.pooled, q.PSN)
	}
	q.PSN = 10
	if p.PSN != 9 {
		t.Fatalf("writing the private copy changed the shared packet: PSN %d", p.PSN)
	}
	pool.Release(p)
	pool.Release(q)
	if pool.Free() != pool.Allocated() {
		t.Fatalf("free %d of %d after releasing both", pool.Free(), pool.Allocated())
	}

	hand := &Packet{PSN: 4}
	if got := pool.Unshare(hand); got != hand {
		t.Fatal("Unshare of a hand-built packet returned a copy")
	}
}

// TestCopyFromKeepsPoolState checks that CopyFrom carries wire fields only:
// the destination keeps its own pool mark and holder count.
func TestCopyFromKeepsPoolState(t *testing.T) {
	pool := NewPacketPool()
	dst := pool.Acquire()
	pool.Share(dst)
	dst.CopyFrom(&Packet{Type: TypeAck, PSN: 5})
	if !dst.pooled || dst.holders != 2 || dst.Type != TypeAck || dst.PSN != 5 {
		t.Fatalf("CopyFrom into a shared pooled packet: %+v", *dst)
	}
	src := pool.Acquire()
	src.PSN = 6
	hand := &Packet{}
	hand.CopyFrom(src)
	if hand.pooled || hand.holders != 0 || hand.PSN != 6 {
		t.Fatalf("CopyFrom into a hand-built packet: %+v", *hand)
	}
	pool.Release(hand) // ignored: still hand-built
	if src.holders != 1 {
		t.Fatalf("source holders %d after a copy was released, want 1", src.holders)
	}
}

// TestNilPacketPool checks that a nil pool pools nothing: it hands out
// plain packets, copies on Share, and ignores releases.
func TestNilPacketPool(t *testing.T) {
	var pool *PacketPool
	p := pool.Acquire()
	if p == nil || p.pooled || p.holders != 0 {
		t.Fatalf("nil pool Acquire: %+v", p)
	}
	p.PSN = 2
	q := pool.Share(p)
	if q == p || q.pooled || q.PSN != 2 {
		t.Fatalf("nil pool Share: copy %v, pooled %v, PSN %d; want true, false, 2", q != p, q.pooled, q.PSN)
	}
	if pool.Unshare(p) != p {
		t.Fatal("nil pool Unshare of an unshared packet returned a copy")
	}
	pool.Release(p)
	pool.Release(nil)
	if p.PSN != 2 {
		t.Fatal("nil pool Release zeroed a packet")
	}
}

// TestPacketPoolBlockFillsSizeClass keeps one refill block within one
// packet of the 16 KiB allocation it is sized for, whatever Packet's size.
func TestPacketPoolBlockFillsSizeClass(t *testing.T) {
	const target = 16 << 10
	size := int(unsafe.Sizeof(Packet{}))
	if blk := block[Packet]() * size; blk > target || blk <= target-size {
		t.Fatalf("block of %d × %d B = %d B, want within one packet below %d B",
			block[Packet](), size, blk, target)
	}
	pool := NewPacketPool()
	pool.Acquire()
	if pool.Allocated() != block[Packet]() {
		t.Fatalf("first refill created %d packets, want %d", pool.Allocated(), block[Packet]())
	}
}
