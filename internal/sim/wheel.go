package sim

// Three-level hashed timing wheel: the simulator's pending-event set. It
// also carries Falcon's pacing (pdl's paceTimer is an ordinary event on
// it).
//
// Layout (see DESIGN.md §8 for the analysis and measurements):
//
//	ns level:  128 FIFOs x 1ns     = the level-0 slot being drained
//	level 0:  1024 slots x 128ns   = one 131.072us granule
//	level 1:   256 slots x 131us   = one ~33.55ms epoch
//	beyond:   binary heap ("far"), cascaded inward as the clock advances
//
// Slots hash by absolute time (at>>shift & mask), so an event is placed
// with two shifts and a compare. Each level keeps an occupancy bitmap, so
// finding the next non-empty slot is a TrailingZeros scan rather than a
// ring walk. A level-0 slot is unordered in time until it becomes due; it
// is then scattered over the ns level. Time is an integer nanosecond, so a
// 128ns slot holds 128 distinct timestamps and FIFO at&127 holds exactly
// one. Events of one timestamp fire in seq order and a fresh schedule
// carries the largest seq yet issued, so the tail of its FIFO is its exact
// place: draining a slot is one stable pass, scheduling into the slot being
// drained (zero-delay self-scheduling callbacks included) is an O(1)
// append, and nothing is ever sorted. The scatter is exact because every
// slot list is already in seq order per timestamp: fresh schedules append
// in seq order, level-1 cascades keep list order, and the far heap refills
// in (time, seq) order. nsInsert does not rest on that: it places by seq
// from the tail, one compare that never moves a fresh event.
//
// Level-0 and level-1 slots store event pointers in fixed-size chunks
// drawn from one wheel-wide free list (most recently freed first), and a
// slot hands its chunks back as soon as it is drained, cascaded or
// cleared, so the wheel retains memory for the events pending at its
// peak, not for every slot's largest population. Cancellation is lazy
// (events are flagged dead and reclaimed when they surface), and the
// chunks, the ns FIFOs and the events themselves are recycled, so
// steady-state scheduling performs no allocations.

import (
	"container/heap"
	"math/bits"
)

const (
	l0Shift = 7                // 128ns level-0 slot width
	l0Bits  = 10               // 1024 level-0 slots
	l1Shift = l0Shift + l0Bits // level-1 slot width = one level-0 granule
	l1Bits  = 8                // 256 level-1 slots
	l2Shift = l1Shift + l1Bits // epoch width = one full level-1 revolution

	nsSlots = 1 << l0Shift // one FIFO per nanosecond of a level-0 slot
	l0Slots = 1 << l0Bits
	l1Slots = 1 << l1Bits
	nsMask  = nsSlots - 1
	l0Mask  = l0Slots - 1
	l1Mask  = l1Slots - 1
)

// fifo is a queue consumed from head; an emptied queue keeps its capacity.
type fifo struct {
	q    []*event
	head int
}

// chunkLen is the number of event pointers in one slot chunk: with the
// link, a chunk fills a 256-byte allocation exactly.
const chunkLen = 31

// chunk is one fixed-size piece of a slot's FIFO.
type chunk struct {
	ev   [chunkLen]*event
	next *chunk
}

// slot is a level-0 or level-1 bucket: a FIFO of chunks, appended at the
// tail, whose last chunk holds n events. An empty slot has no chunks.
// Chunks returned to the free list keep their stale event pointers: every
// event stays reachable from the simulator's free list anyway.
type slot struct {
	head, tail *chunk
	n          int
}

// in returns the occupied part of c, one of the slot's chunks.
func (sl *slot) in(c *chunk) []*event {
	if c == sl.tail {
		return c.ev[:sl.n]
	}
	return c.ev[:]
}

// wheelState is embedded in Simulator. All times are absolute, so slot
// indices are pure hashes of the timestamp; l0Gran and epoch record which
// granule/epoch each level currently covers, and l0Next/l1Next bound the
// occupancy scan to slots not yet drained.
type wheelState struct {
	// curEnd is the exclusive end of the level-0 slot being drained.
	// ns[t&nsMask] queues the events of timestamp t in that slot,
	// [curEnd-nsSlots, curEnd), in seq order. early holds the events below
	// the slot: curEnd runs ahead of the clock only after a slot of nothing
	// but cancelled events was drained, so a run all but never reaches it.
	ns     [nsSlots]fifo
	nsbits [nsSlots / 64]uint64
	early  eventHeap
	curEnd Time

	l0      [l0Slots]slot
	l0bits  [l0Slots / 64]uint64
	l0Count int    // events in level-0 slots (including cancelled ones)
	l0Next  int    // first level-0 slot not yet drained this granule
	l0Gran  uint64 // absolute granule number (at >> l1Shift) level 0 covers

	l1      [l1Slots]slot
	l1bits  [l1Slots / 64]uint64
	l1Count int
	l1Next  int
	epoch   uint64 // absolute epoch number (at >> l2Shift) level 1 covers

	// spare is the free list of chunks, linked through next.
	spare *chunk
}

// push appends e to sl.
func (w *wheelState) push(sl *slot, e *event) {
	if sl.tail == nil || sl.n == chunkLen {
		w.extend(sl)
	}
	sl.tail.ev[sl.n] = e
	sl.n++
}

// extend links a fresh chunk to the tail of sl, reusing the most recently
// freed one when there is any.
func (w *wheelState) extend(sl *slot) {
	c := w.spare
	if c == nil {
		c = new(chunk)
	} else {
		w.spare = c.next
		c.next = nil
	}
	if sl.tail == nil {
		sl.head = c
	} else {
		sl.tail.next = c
	}
	sl.tail, sl.n = c, 0
}

// freeChunk returns c to the free list and returns the chunk that followed
// it. Draining a slot frees each chunk as soon as its events are visited,
// so the inserts a cascade makes reuse the chunks it has just emptied.
func (w *wheelState) freeChunk(c *chunk) *chunk {
	next := c.next
	c.next = w.spare
	w.spare = c
	return next
}

// nextBit returns the index of the first set bit at or after from, or -1.
func nextBit(words []uint64, from int) int {
	w := from >> 6
	if w >= len(words) {
		return -1
	}
	word := words[w] & (^uint64(0) << uint(from&63))
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(words) {
			return -1
		}
		word = words[w]
	}
}

// wheelInsert places e in the ns level, a wheel level or the far heap.
// Placement depends only on e.at and state that pop keeps consistent with
// the clock, so an insert is two shifts and an append in the common case.
func (s *Simulator) wheelInsert(e *event) {
	w := &s.wheel
	if e.at < w.curEnd {
		w.nsInsert(e)
		return
	}
	at := uint64(e.at)
	if at>>l1Shift == w.l0Gran {
		k := int(at>>l0Shift) & l0Mask
		sl := &w.l0[k]
		if sl.head == nil {
			w.l0bits[k>>6] |= 1 << uint(k&63)
		}
		w.push(sl, e)
		w.l0Count++
		return
	}
	if at>>l2Shift == w.epoch {
		m := int(at>>l1Shift) & l1Mask
		sl := &w.l1[m]
		if sl.head == nil {
			w.l1bits[m>>6] |= 1 << uint(m&63)
		}
		w.push(sl, e)
		w.l1Count++
		return
	}
	heap.Push(&s.far, e)
}

// nsInsert queues an event below curEnd: on the FIFO of its nanosecond, or
// on the early heap when it precedes the drained slot (there at&nsMask
// would alias it into the wrong nanosecond). A FIFO holds one timestamp, so
// seq alone orders it: the walk back from the tail never moves a fresh
// event.
func (w *wheelState) nsInsert(e *event) {
	if e.at < w.curEnd-nsSlots {
		heap.Push(&w.early, e)
		return
	}
	k := int(e.at) & nsMask
	f := &w.ns[k]
	w.nsbits[k>>6] |= 1 << uint(k&63)
	i := len(f.q)
	f.q = append(f.q, e)
	for ; i > f.head && f.q[i-1].seq > e.seq; i-- {
		f.q[i] = f.q[i-1]
	}
	f.q[i] = e
}

// nsHead returns the index of the lowest occupied FIFO, or -1.
func (w *wheelState) nsHead() int {
	switch {
	case w.nsbits[0] != 0:
		return bits.TrailingZeros64(w.nsbits[0])
	case w.nsbits[1] != 0:
		return 64 + bits.TrailingZeros64(w.nsbits[1])
	}
	return -1
}

// nsTake pops FIFO k's head, releasing its occupancy bit when it empties.
func (w *wheelState) nsTake(k int) *event {
	f := &w.ns[k]
	e := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
		w.nsbits[k>>6] &^= 1 << uint(k&63)
	}
	return e
}

// pop removes and returns the live event with the smallest (time, seq), or
// nil when none remain, cascading level-1 slots and far-heap epochs inward
// as the schedule drains. Invariant: every early event precedes every FIFO
// event, which precedes every level-0 event, which precedes every level-1
// event, which precedes every far event — so scanning the regions in order
// always finds the global minimum.
func (s *Simulator) pop() *event {
	w := &s.wheel
	for {
		// Region 1: the early heap, then the ns level.
		for {
			var e *event
			if len(w.early) > 0 {
				e = heap.Pop(&w.early).(*event)
			} else if k := w.nsHead(); k >= 0 {
				e = w.nsTake(k)
			} else {
				break
			}
			if e.dead {
				s.recycle(e)
				continue
			}
			return e
		}
		// Region 2: scatter the next occupied level-0 slot over the FIFOs.
		if w.l0Count > 0 {
			k := nextBit(w.l0bits[:], w.l0Next)
			items := w.l0[k]
			w.l0[k] = slot{}
			w.l0bits[k>>6] &^= 1 << uint(k&63)
			w.l0Next = k + 1
			// Addition, not OR: k+1 == l0Slots (the granule's last
			// slot) must carry into the granule bits.
			w.curEnd = Time(w.l0Gran<<l1Shift + uint64(k+1)<<l0Shift)
			for c := items.head; c != nil; c = w.freeChunk(c) {
				evs := items.in(c)
				w.l0Count -= len(evs)
				for _, e := range evs {
					if e.dead {
						s.recycle(e)
						continue
					}
					w.nsInsert(e)
				}
			}
			continue
		}
		// Region 3: cascade the next occupied level-1 slot into level 0.
		if w.l1Count > 0 {
			m := nextBit(w.l1bits[:], w.l1Next)
			items := w.l1[m]
			w.l1[m] = slot{}
			w.l1bits[m>>6] &^= 1 << uint(m&63)
			if !items.live() {
				// A slot holding nothing but cancelled timers must not
				// re-anchor level 0: advancing l0Gran past granules the
				// clock has not reached would let a later Run() strand
				// fresh events behind the l1Next scan point (they hash
				// to level-1 slots nextBit never revisits). Reclaim the
				// slot and keep the anchor where the clock is.
				w.l1Count -= s.reclaim(items)
				continue
			}
			w.l1Next = m + 1
			w.l0Gran = w.epoch<<l1Bits | uint64(m)
			w.l0Next = 0
			for c := items.head; c != nil; c = w.freeChunk(c) {
				evs := items.in(c)
				w.l1Count -= len(evs)
				for _, e := range evs {
					if e.dead {
						s.recycle(e)
						continue
					}
					s.wheelInsert(e)
				}
			}
			continue
		}
		// Region 4: refill level 1 with the far heap's next epoch.
		for len(s.far) > 0 && s.far[0].dead {
			s.recycle(heap.Pop(&s.far).(*event))
		}
		if len(s.far) == 0 {
			return nil
		}
		newEpoch := uint64(s.far[0].at) >> l2Shift
		w.epoch = newEpoch
		w.l1Next = 0
		w.l0Gran = newEpoch << l1Bits
		w.l0Next = 0
		for len(s.far) > 0 {
			e := s.far[0]
			if uint64(e.at)>>l2Shift != newEpoch {
				break
			}
			heap.Pop(&s.far)
			if e.dead {
				s.recycle(e)
				continue
			}
			s.wheelInsert(e)
		}
	}
}

// peek reports the exact timestamp of the next live event without
// advancing the wheel: RunUntil needs the precise value to decide whether
// the event falls inside its bound, even mid-slot. Fully cancelled slots
// encountered along the way are reclaimed, but no live event moves.
func (s *Simulator) peek() (Time, bool) {
	w := &s.wheel
	if at, ok := s.heapPeek(&w.early); ok {
		return at, true
	}
	for k := w.nsHead(); k >= 0; k = w.nsHead() {
		if f := &w.ns[k]; !f.q[f.head].dead {
			return f.q[f.head].at, true
		}
		s.recycle(w.nsTake(k))
	}
	if at, ok := peekLevel(s, w.l0[:], w.l0bits[:], &w.l0Count, w.l0Next); ok {
		return at, true
	}
	if at, ok := peekLevel(s, w.l1[:], w.l1bits[:], &w.l1Count, w.l1Next); ok {
		return at, true
	}
	return s.heapPeek(&s.far)
}

// heapPeek reports the timestamp of h's first live event, reclaiming the
// cancelled ones above it.
func (s *Simulator) heapPeek(h *eventHeap) (Time, bool) {
	for len(*h) > 0 {
		e := (*h)[0]
		if !e.dead {
			return e.at, true
		}
		heap.Pop(h)
		s.recycle(e)
	}
	return 0, false
}

// peekLevel finds the earliest live timestamp in a wheel level, clearing
// slots that hold only cancelled events.
func peekLevel(s *Simulator, slots []slot, bitmap []uint64, count *int, from int) (Time, bool) {
	for *count > 0 {
		k := nextBit(bitmap, from)
		if k < 0 {
			return 0, false
		}
		sl := &slots[k]
		var min Time
		live := false
		for c := sl.head; c != nil; c = c.next {
			for _, e := range sl.in(c) {
				if !e.dead && (!live || e.at < min) {
					min, live = e.at, true
				}
			}
		}
		if live {
			return min, true
		}
		*count -= s.reclaim(*sl)
		*sl = slot{}
		bitmap[k>>6] &^= 1 << uint(k&63)
		from = k + 1
	}
	return 0, false
}

// live reports whether the slot holds an event that is not cancelled.
func (sl *slot) live() bool {
	for c := sl.head; c != nil; c = c.next {
		for _, e := range sl.in(c) {
			if !e.dead {
				return true
			}
		}
	}
	return false
}

// reclaim recycles the events of a detached slot and frees its chunks,
// returning how many events it contained.
func (s *Simulator) reclaim(sl slot) int {
	n := 0
	for c := sl.head; c != nil; c = s.wheel.freeChunk(c) {
		evs := sl.in(c)
		n += len(evs)
		for _, e := range evs {
			s.recycle(e)
		}
	}
	return n
}
