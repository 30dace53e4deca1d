package netsim

// Fabric fast-path pooling: the per-frame, per-hop objects — Frames and
// the typed port events that move them — are recycled through free lists
// owned by the Network, so the steady-state packet path performs no heap
// allocation. This file pairs with the pooled scheduler events in
// internal/sim (which recycle the (time, seq) entries themselves); together
// they make a fabric hop allocation-free end to end. DESIGN.md §10
// describes the ownership rules.

import "falcon/internal/sim"

// framePoolBlock and eventPoolBlock size the free-list refill batches;
// block allocation amortizes pool growth to zero allocations per frame in
// steady state (mirroring internal/sim's event allocator).
const (
	framePoolBlock = 128
	eventPoolBlock = 128
)

// FramePool recycles Frame objects crossing the fabric. The ownership
// contract is linear:
//
//   - A sender acquires a frame (Host.NewFrame or FramePool.Acquire),
//     fills it in, and hands it to Host.Send. From that point the fabric
//     owns it.
//   - The fabric releases it exactly once: at the port that drops it
//     (down link, random drop, queue overflow), or after the destination
//     host's tap and handler have returned.
//   - Frame handlers and taps must not retain the *Frame past return.
//     Anything needed longer — e.g. frames a consumer holds back for
//     delayed processing — must be copied out first ("copy on hold").
//     Payloads are not pooled, so retaining the Payload pointer itself
//     remains safe; it is only the Frame envelope that is recycled.
//
// Frames built by hand (&Frame{...}, as tests and examples do) never enter
// the pool: Release leaves them to the garbage collector, so existing
// callers keep their semantics, including reading a delivered frame after
// the run ends.
type FramePool struct {
	free []*Frame
}

// Acquire returns a zeroed frame owned by the caller until it is handed to
// Host.Send (or returned with Release).
func (p *FramePool) Acquire() *Frame {
	n := len(p.free)
	if n == 0 {
		blk := make([]Frame, framePoolBlock)
		for i := range blk {
			blk[i].pooled = true
			p.free = append(p.free, &blk[i])
		}
		n = len(p.free)
	}
	f := p.free[n-1]
	p.free = p.free[:n-1]
	return f
}

// Release returns a pooled frame to the free list, zeroing it (a recycled
// frame must not leak the previous packet's CE mark, hop count or payload
// reference). Frames not obtained from Acquire are ignored.
func (p *FramePool) Release(f *Frame) {
	if f == nil || !f.pooled {
		return
	}
	*f = Frame{pooled: true}
	p.free = append(p.free, f)
}

// fabricPool groups the free lists of one simulation partition: the frame
// pool and the port-event free list. A single-loop network owns exactly
// one; a sharded network owns one per partition so that every free list
// is touched only by the goroutine executing that partition's events. The
// migration rule keeps
// that invariant without locks: objects are acquired from the pool of the
// partition doing the acquiring and released into the pool of the
// partition executing the release, so a frame crossing a partition
// boundary simply changes pools (free lists are fungible; capacity drifts
// toward receivers, which is exactly where the next Acquire happens for
// request/response traffic).
type fabricPool struct {
	sim    *sim.Simulator // the partition's simulator
	frames FramePool
	evFree []*portEvent
}

// drop discards a frame the fabric will not deliver, on this pool's
// partition; every drop site goes through here. The sender's OnDrop hook
// gets the payload back, the frame returns to this pool.
func (fp *fabricPool) drop(f *Frame) {
	if f.OnDrop != nil {
		f.OnDrop(fp.sim, f.Payload)
	}
	fp.frames.Release(f)
}

// portEvent is the pooled, typed continuation the fast path schedules
// instead of capture closures. One frame commitment arms two events:
//
//   - evDrain fires at the frame's departure instant and folds the
//     serializer's queuedBytes decrement into the port's self-clocked
//     drain: each committed frame carries its own drain tick, so the
//     decrement needs neither a closure nor a dedicated dispatcher.
//   - evDeliver fires after propagation and hands the frame to the next
//     device (switch or host).
//
// Each event is scheduled at the same instant, in the same order, as the
// closure pair it replaced, so the simulator's (time, seq) stream — and
// with it every trace hash — is unchanged.
//
// pool is the fabricPool the event returns to when it fires — the pool of
// the partition that executes it (the port's own partition for drains, the
// destination device's for deliveries).
type portEvent struct {
	pool  *fabricPool
	port  *Port  // evDrain: the port whose queue drains
	dst   device // evDeliver: the receiving device
	frame *Frame // evDeliver: the frame in flight
	size  int    // evDrain: bytes leaving the queue
	kind  uint8
}

const (
	evDrain uint8 = iota
	evDeliver
)

// RunAction implements sim.Action. The event is returned to its pool
// before the delivery handler runs, so a handler that immediately sends
// (switch forwarding, request/response turnaround) reuses the hot object.
func (e *portEvent) RunAction() {
	switch e.kind {
	case evDrain:
		e.port.queuedBytes -= e.size
		e.release()
	default: // evDeliver
		dst, f := e.dst, e.frame
		e.release()
		dst.receive(f)
	}
}

// getEvent draws a port event from this partition's free list, refilling
// in blocks.
func (fp *fabricPool) getEvent() *portEvent {
	k := len(fp.evFree)
	if k == 0 {
		blk := make([]portEvent, eventPoolBlock)
		for i := range blk {
			blk[i].pool = fp
			fp.evFree = append(fp.evFree, &blk[i])
		}
		k = len(fp.evFree)
	}
	e := fp.evFree[k-1]
	fp.evFree = fp.evFree[:k-1]
	return e
}

// release recycles a fired port event into its destination pool, clearing
// its references so pooled frames and ports are not pinned.
func (e *portEvent) release() {
	fp := e.pool
	e.port = nil
	e.dst = nil
	e.frame = nil
	fp.evFree = append(fp.evFree, e)
}
