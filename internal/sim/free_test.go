package sim

import "testing"

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
