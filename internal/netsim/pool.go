package netsim

// Fabric fast-path pooling: Frames are recycled through free lists owned
// by the Network, so the steady-state packet path performs no heap
// allocation. A hop needs no pooled object of its own: the frame is its
// own arrival action and the port its own drain action (Port.send), both
// scheduled into the pooled events of internal/sim, which recycle the
// (time, seq) entries themselves. DESIGN.md §10 describes the ownership
// rules.

// framePoolBlock sizes the free-list refill batches; block allocation
// amortizes pool growth to zero allocations per frame in steady state
// (mirroring internal/sim's event allocator).
const framePoolBlock = 128

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
// Frames built by hand (&Frame{...}, as tests do) never enter
// the pool: Release leaves them to the garbage collector, so existing
// callers keep their semantics, including reading a delivered frame after
// the run ends.
type FramePool struct {
	free []*Frame
	// allocated counts the frames this pool has created; with Free it
	// lets a drained run assert that every frame came back.
	allocated int
}

// Acquire returns a zeroed frame owned by the caller until it is handed to
// Host.Send (or returned with Release).
func (p *FramePool) Acquire() *Frame {
	n := len(p.free)
	if n == 0 {
		blk := make([]Frame, framePoolBlock)
		p.allocated += len(blk)
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
// frame must not leak the previous packet's CE mark, hop count, next
// device or payload reference). Frames not obtained from Acquire are
// ignored.
func (p *FramePool) Release(f *Frame) {
	if f == nil || !f.pooled {
		return
	}
	*f = Frame{pooled: true}
	p.free = append(p.free, f)
}

// Allocated returns how many frames the pool has created so far (its
// high-water mark: the pool never shrinks).
func (p *FramePool) Allocated() int { return p.allocated }

// Free returns how many frames sit on the free list. At quiescence Free
// equals Allocated; less is a leak.
func (p *FramePool) Free() int { return len(p.free) }
