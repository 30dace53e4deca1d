package wire

import "unsafe"

// Transport packet pooling: the per-packet envelope objects the PDL and TL
// exchange with the NIC are recycled through a free list, mirroring
// internal/netsim's FramePool one layer up the stack (DESIGN.md §11).
//
// A pooled packet counts its holders. Acquire returns a packet with one
// holder, Share adds one, and Release drops one and recycles the packet
// when none are left. The rule is one sentence: a shared packet is
// read-only, and a writer calls Unshare first, which returns the packet
// itself when the caller is its only holder and a private copy otherwise.
// The holders are:
//
//   - The TL acquires data packets, fills them in, and hands them to
//     pdl.Conn.SendPacket. From that point the PDL holds the packet — it
//     retains it across retransmissions — and releases it once, when the
//     packet is acknowledged (or when the connection fails). It unshares
//     the packet before stamping each transmission, so a retransmission
//     copies only while an earlier one is still on the wire or held by
//     the peer.
//   - The PDL acquires ACK/NACK packets, hands them to pdl.Upper.Transmit,
//     and releases them as soon as Transmit returns.
//   - An endpoint's Transmit (internal/core) shares the packet with the
//     fabric. The wire's hold is released by the receiving node after
//     HandlePacket returns — or, when the fabric drops the frame carrying
//     it, from the frame's OnDrop hook, so loss does not bleed packets out
//     of the pool.
//     The receiver unshares before it marks CE: a mark belongs to one
//     arrival, not to the sender's retained packet.
//   - A layer that holds an inbound packet past its upcall — the TL's
//     target-side reorder buffer — shares it and releases its hold when it
//     is done. Data payloads are never pooled, so retaining p.Data is safe.
//
// Packets built by hand (&Packet{...}, as tests do) never
// enter a pool: Release ignores them, Share returns a pooled copy, and
// Unshare returns them as they are. A nil *Pool pools nothing: Acquire
// allocates and Release recycles nothing.

// Holds is the bookkeeping a pooled type embeds: whether a Pool made it,
// and how many holders it has. It is not a wire field (Marshal ignores
// it, Unmarshal and CopyFrom preserve it), and a hand-built value leaves
// it zero, so Release ignores such a value.
type Holds struct {
	pooled  bool
	holders uint32
}

func (h *Holds) holds() *Holds { return h }

// Held is the constraint on a Pool's element: a pointer to a type that
// embeds Holds.
type Held[T any] interface {
	*T
	holds() *Holds
}

// Pool recycles values of one type through a free list under the holder
// count above. PacketPool is the Pool of Packets; internal/roce keeps its
// packets and op descriptors in Pools of its own types. A Pool is not
// safe for concurrent use: one pool belongs to one event loop.
type Pool[T any, P Held[T]] struct {
	free []P
	// allocated counts the values this pool has created; with Free it
	// lets a drained run assert that every value came back.
	allocated int
}

// PacketPool recycles Packet objects through the transport hot path.
// internal/core keeps one per Cluster, shared by every node, so a packet
// acquired by its sender and released by its receiver returns to the free
// list it came from and the pool's size follows peak packets in flight,
// whatever the traffic's direction.
type PacketPool = Pool[Packet, *Packet]

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// block is how many values one free-list refill creates: as many as fill
// a 16 KiB allocation, which is itself a Go size class (64 packets,
// 11 264 B, would be rounded up to the 12 288 B class and waste 8 % of
// every block). Block allocation amortizes pool growth to zero
// allocations per value in steady state.
func block[T any]() int {
	var zero T
	return max(1, (16<<10)/int(unsafe.Sizeof(zero)))
}

// Acquire returns a zeroed value with one holder, the caller, until it is
// released (directly or by the layer the caller hands it to; see the
// ownership contract above).
func (p *Pool[T, P]) Acquire() P {
	if p == nil {
		return P(new(T))
	}
	n := len(p.free)
	if n == 0 {
		blk := make([]T, block[T]())
		p.allocated += len(blk)
		for i := range blk {
			P(&blk[i]).holds().pooled = true
			p.free = append(p.free, &blk[i])
		}
		n = len(p.free)
	}
	v := p.free[n-1]
	p.free = p.free[:n-1]
	v.holds().holders = 1
	return v
}

// Share adds a holder to a pooled value and returns it; the value is
// read-only while it is shared. A value not obtained from Acquire cannot
// count holders, so Share returns a pooled copy of it instead and leaves
// the original untouched.
func (p *Pool[T, P]) Share(v P) P {
	if h := v.holds(); h.pooled {
		h.holders++
		return v
	}
	cp := p.Acquire()
	copyHeld(cp, v)
	return cp
}

// Unshare returns a value the caller may write to: v itself when the
// caller is its only holder (or v is not pooled), otherwise a private
// pooled copy, in which case the caller's hold on v is dropped.
func (p *Pool[T, P]) Unshare(v P) P {
	h := v.holds()
	if h.holders <= 1 {
		return v
	}
	h.holders--
	cp := p.Acquire()
	copyHeld(cp, v)
	return cp
}

// Release drops the caller's hold on a pooled value. The last holder's
// release returns the value to the free list, zeroing it (a recycled
// packet must not leak the previous packet's payload reference, bitmap
// state or flags). Values not obtained from Acquire are ignored, so
// callers may release unconditionally.
func (p *Pool[T, P]) Release(v P) {
	if v == nil {
		return
	}
	h := v.holds()
	if !h.pooled {
		return
	}
	if h.holders > 1 {
		h.holders--
		return
	}
	if p == nil {
		return
	}
	var zero T
	*v = zero
	v.holds().pooled = true
	p.free = append(p.free, v)
}

// Allocated returns how many values the pool has created so far (its
// high-water mark: the pool never shrinks).
func (p *Pool[T, P]) Allocated() int { return p.allocated }

// Free returns how many values sit on the free list. At quiescence Free
// equals Allocated; less is a leak.
func (p *Pool[T, P]) Free() int { return len(p.free) }

// copyHeld copies every field of src into dst except dst's own pool
// membership and holder count. Plain assignment (*dst = *src) would
// overwrite both and silently remove dst from its pool on release.
func copyHeld[T any, P Held[T]](dst, src P) {
	h := *dst.holds()
	*dst = *src
	*dst.holds() = h
}

// CopyFrom copies every wire field of src into p while preserving p's own
// pool membership and holder count.
func (p *Packet) CopyFrom(src *Packet) { copyHeld(p, src) }
