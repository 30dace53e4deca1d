package sim

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestFreeListLIFO pins the free list's contract: Get allocates only when
// the list is empty, reuse is last-in first-out, Put keeps the value's
// fields, and Built and Free balance once every value is back.
func TestFreeListLIFO(t *testing.T) {
	type obj struct{ id int }
	var l FreeList[obj]
	a, b := l.Get(), l.Get()
	a.id, b.id = 1, 2
	if l.Built() != 2 || l.Free() != 0 {
		t.Fatalf("built %d free %d after two gets, want 2 and 0", l.Built(), l.Free())
	}
	l.Put(a)
	l.Put(b)
	if l.Built() != l.Free() {
		t.Fatalf("built %d free %d with every value back", l.Built(), l.Free())
	}
	if got := l.Get(); got != b || got.id != 2 {
		t.Fatalf("Get returned %p (id %d), want the last value put, %p (id 2)", got, got.id, b)
	}
	if got := l.Get(); got != a {
		t.Fatalf("Get returned %p, want %p", got, a)
	}
	if c := l.Get(); c == a || c == b || c.id != 0 || l.Built() != 3 {
		t.Fatalf("Get on an empty list returned %+v with %d built, want a new zero value and 3", c, l.Built())
	}
}

// TestEventBlockFillsSizeClass measures what one refill of the event free
// list costs the heap: the bytes allocated per block stay within 1 % of
// the eventBlock events asked for, so the block fills its size class.
func TestEventBlockFillsSizeClass(t *testing.T) {
	const blocks = 64
	s := New(1)
	// The first refill also grows the free slice; later ones reuse it.
	for i := 0; i < eventBlock; i++ {
		s.alloc()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < blocks*eventBlock; i++ {
		s.alloc()
	}
	runtime.ReadMemStats(&after)
	perBlock := float64(after.TotalAlloc-before.TotalAlloc) / blocks
	requested := float64(eventBlock * unsafe.Sizeof(event{}))
	if perBlock > 1.01*requested {
		t.Fatalf("a block of %d events takes %.0f B for the %.0f B asked for, %.1f %% more",
			eventBlock, perBlock, requested, 100*(perBlock/requested-1))
	}
}
