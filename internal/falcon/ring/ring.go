// Package ring provides the two power-of-two rings the transports keep
// their per-connection state in.
//
// Ring is the FIFO queue behind the PDL's, TL's and RoCE's backlogs: data
// packets waiting for the send window, deferred pull responses, parked ULP
// work and the connections waiting on a full pool. It allocates on its
// first Push and doubles only when full. A moving head never reallocates
// it, so a standing backlog of k items keeps the smallest power of two ≥
// max(k, 4) slots for good, whether or not the queue ever drains to empty.
//
// Table is the windowed map keyed by sequence number behind the TL's RSN
// tables and RoCE's PSN tables.
package ring

// Ring is a FIFO queue. The zero value is empty and owns no storage.
type Ring[T any] struct {
	buf []T // len is zero or a power of two
	// head indexes the oldest item and n counts the queued ones; 32 bits
	// keep a ring four words.
	head, n int32
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return int(r.n) }

// Push appends v at the tail, doubling the buffer (to at least 4 slots)
// when it is full.
func (r *Ring[T]) Push(v T) {
	if int(r.n) == len(r.buf) {
		buf := make([]T, max(2*len(r.buf), 4))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[int(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Peek returns the oldest item. It panics if the ring is empty.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("ring: empty")
	}
	return r.buf[r.head]
}

// Pop removes and returns the oldest item, clearing its slot so the ring
// keeps no reference to it. It panics if the ring is empty.
func (r *Ring[T]) Pop() T {
	v := r.Peek()
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & int32(len(r.buf)-1)
	r.n--
	return v
}
