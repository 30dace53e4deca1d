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
//   - The PDL acquires ACK/NACK packets, hands them to Callbacks.Send, and
//     releases them as soon as Send returns.
//   - Callbacks.Send (internal/core) shares the packet with the fabric.
//     The wire's hold is released by the receiving node after HandlePacket
//     returns — or, when the fabric drops the frame carrying it, from the
//     frame's OnDrop hook, so loss does not bleed packets out of the pool.
//     The receiver unshares before it marks CE: a mark belongs to one
//     arrival, not to the sender's retained packet.
//   - A layer that holds an inbound packet past its upcall — the TL's
//     target-side reorder buffer — shares it and releases its hold when it
//     is done. Data payloads are never pooled, so retaining p.Data is safe.
//
// Packets built by hand (&Packet{...}, as tests and the examples do) never
// enter a pool: Release ignores them, Share returns a pooled copy, and
// Unshare returns them as they are. A nil *PacketPool pools nothing:
// Acquire allocates and Release recycles nothing.

// packetPoolBlock sizes the free-list refill batch so that one block fills
// a 16 KiB allocation, which is itself a Go size class: 64 packets (11 264
// B) would be rounded up to the 12 288 B class and waste 8 % of every
// block. Block allocation amortizes pool growth to zero allocations per
// packet in steady state.
const packetPoolBlock = (16 << 10) / int(unsafe.Sizeof(Packet{}))

// PacketPool recycles Packet objects through the transport hot path. It is
// not safe for concurrent use: one pool belongs to one event loop.
// internal/core keeps one per Cluster, shared by every node, so a packet
// acquired by its sender and released by its receiver returns to the free
// list it came from and the pool's size follows peak packets in flight,
// whatever the traffic's direction.
type PacketPool struct {
	free []*Packet
	// allocated counts the packets this pool has created; with Free it
	// lets a drained run assert that every packet came back.
	allocated int
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Acquire returns a zeroed packet with one holder, the caller, until it is
// released (directly or by the layer the caller hands it to; see the
// ownership contract above).
func (p *PacketPool) Acquire() *Packet {
	if p == nil {
		return &Packet{}
	}
	n := len(p.free)
	if n == 0 {
		blk := make([]Packet, packetPoolBlock)
		p.allocated += len(blk)
		for i := range blk {
			blk[i].pooled = true
			p.free = append(p.free, &blk[i])
		}
		n = len(p.free)
	}
	pk := p.free[n-1]
	p.free = p.free[:n-1]
	pk.holders = 1
	return pk
}

// Share adds a holder to a pooled packet and returns it; the packet is
// read-only while it is shared. A packet not obtained from Acquire cannot
// count holders, so Share returns a pooled copy of it instead and leaves
// the original untouched.
func (p *PacketPool) Share(pk *Packet) *Packet {
	if pk.pooled {
		pk.holders++
		return pk
	}
	cp := p.Acquire()
	cp.CopyFrom(pk)
	return cp
}

// Unshare returns a packet the caller may write to: pk itself when the
// caller is its only holder (or pk is not pooled), otherwise a private
// pooled copy, in which case the caller's hold on pk is dropped.
func (p *PacketPool) Unshare(pk *Packet) *Packet {
	if pk.holders <= 1 {
		return pk
	}
	pk.holders--
	cp := p.Acquire()
	cp.CopyFrom(pk)
	return cp
}

// Release drops the caller's hold on a pooled packet. The last holder's
// release returns the packet to the free list, zeroing it (a recycled
// packet must not leak the previous packet's payload reference, bitmap
// state or flags). Packets not obtained from Acquire are ignored, so
// callers may release unconditionally.
func (p *PacketPool) Release(pk *Packet) {
	if pk == nil || !pk.pooled {
		return
	}
	if pk.holders > 1 {
		pk.holders--
		return
	}
	if p == nil {
		return
	}
	*pk = Packet{pooled: true}
	p.free = append(p.free, pk)
}

// Allocated returns how many packets the pool has created so far (its
// high-water mark: the pool never shrinks).
func (p *PacketPool) Allocated() int { return p.allocated }

// Free returns how many packets sit on the free list. At quiescence Free
// equals Allocated; less is a leak.
func (p *PacketPool) Free() int { return len(p.free) }

// CopyFrom copies every wire field of src into p while preserving p's own
// pool membership and holder count. Plain assignment (*p = *src) would
// overwrite both and silently remove p from its pool on release.
func (p *Packet) CopyFrom(src *Packet) {
	pooled, holders := p.pooled, p.holders
	*p = *src
	p.pooled, p.holders = pooled, holders
}
