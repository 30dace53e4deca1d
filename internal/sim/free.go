package sim

import "unsafe"

// FreeList recycles values of one type LIFO: Get pops the value Put pushed
// last, or allocates a single new one when the list is empty. It is the
// one free list behind every pooled per-op action and context above the
// engine (NIC ingress and egress jobs, host-delivery completions, retry
// events, transaction contexts, ULP descriptors, software-transport
// continuations); the zero value is an empty list.
//
// Each value is allocated with the list's link beside it, so a value costs
// one word more than its type, as a next field of its own would, and
// pushing or popping allocates nothing. Put takes only values that Get
// returned, from this list or another FreeList of the same type: it
// writes the link behind the value.
//
// Put does not zero the value: owners reset what must not leak into the
// next use and keep what they set once (an event's owner pointer, a bound
// method value). The list grows one value at a time, never by blocks, so
// a list per node or per connection costs two words plus the values it
// has held; the engine's events and the network-wide packet and frame
// pools, which turn over at packet rate, refill in blocks instead
// (DESIGN.md §10). A list is not safe for concurrent use: it belongs to
// one event loop.
type FreeList[T any] struct {
	head *freeNode[T]
	// The counts are 32-bit so that the list stays two words.
	built, free int32
}

// freeNode is one value and its link; the value comes first, so a pointer
// to it is a pointer to the node.
type freeNode[T any] struct {
	v    T
	next *freeNode[T]
}

// Get returns a value from the list, or a new zero value when it is empty.
func (l *FreeList[T]) Get() *T {
	n := l.head
	if n == nil {
		l.built++
		return &new(freeNode[T]).v
	}
	l.head = n.next
	l.free--
	return &n.v
}

// Put returns v, which Get returned, to the list.
func (l *FreeList[T]) Put(v *T) {
	n := (*freeNode[T])(unsafe.Pointer(v))
	n.next = l.head
	l.head = n
	l.free++
}

// Built reports how many values Get has allocated.
func (l *FreeList[T]) Built() int { return int(l.built) }

// Free reports how many values sit on the list. Once every value Get
// handed out is back, Free equals Built; less is a leak.
func (l *FreeList[T]) Free() int { return int(l.free) }
