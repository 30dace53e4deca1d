package wire

// Transport packet pooling: the per-packet envelope objects the PDL and TL
// exchange with the NIC are recycled through a free list, mirroring
// internal/netsim's FramePool one layer up the stack (DESIGN.md §11). The
// ownership contract is linear:
//
//   - The TL acquires data packets, fills them in, and hands them to
//     pdl.Conn.SendPacket. From that point the PDL owns the packet — it
//     retains it across retransmissions — and releases it exactly once,
//     when the packet is acknowledged (or when the connection fails).
//   - The PDL acquires ACK/NACK packets, hands them to Callbacks.Send, and
//     releases them as soon as Send returns: Send implementations must
//     snapshot the packet synchronously (internal/core copies it into a
//     fresh pooled packet for the fabric) and must not retain the pointer.
//   - On the receive side, internal/core acquires the in-flight fabric
//     copy at transmit time and releases it after HandlePacket returns —
//     or, when the fabric drops the frame carrying it, from the frame's
//     OnDrop hook, so loss does not bleed packets out of the pool.
//     Consumers that hold packet state past return — the TL's target-side
//     reorder buffer — copy the packet by value first ("copy on hold").
//     Data payloads are never pooled, so retaining p.Data remains safe.
//
// Packets built by hand (&Packet{...}, as tests and the examples do) never
// enter a pool: Release ignores them, preserving their semantics.

// packetPoolBlock sizes the free-list refill batch; block allocation
// amortizes pool growth to zero allocations per packet in steady state.
const packetPoolBlock = 64

// PacketPool recycles Packet objects through the transport hot path. It is
// not safe for concurrent use: one pool belongs to one event loop.
// internal/core keeps one per Cluster and partition simulator, shared by
// every node on that partition, so a packet acquired by its sender and
// released by its receiver returns to the free list it came from and the
// pool's size follows peak packets in flight, whatever the traffic's
// direction. Only a packet that crosses a partition boundary changes pools,
// as netsim's frames do.
type PacketPool struct {
	free []*Packet
	// allocated counts the packets this pool has created; with Free it
	// lets a drained run assert that every packet came back.
	allocated int
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Acquire returns a zeroed packet owned by the caller until it is released
// (directly or by the layer the caller hands it to; see the ownership
// contract above).
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
	return pk
}

// Release returns a pooled packet to the free list, zeroing it (a recycled
// packet must not leak the previous packet's payload reference, bitmap
// state or flags). Packets not obtained from Acquire are ignored, so
// callers may release unconditionally.
func (p *PacketPool) Release(pk *Packet) {
	if p == nil || pk == nil || !pk.pooled {
		return
	}
	*pk = Packet{pooled: true}
	p.free = append(p.free, pk)
}

// Allocated returns how many packets the pool has created so far (its
// high-water mark: the pool never shrinks).
func (p *PacketPool) Allocated() int { return p.allocated }

// Free returns how many packets sit on the free list. At quiescence, with
// no partition-crossing traffic, Free equals Allocated; less is a leak.
func (p *PacketPool) Free() int { return len(p.free) }

// CopyFrom copies every wire field of src into p while preserving p's own
// pool membership. Plain assignment (*p = *src) would overwrite the pooled
// mark and silently remove p from its pool on release.
func (p *Packet) CopyFrom(src *Packet) {
	pooled := p.pooled
	*p = *src
	p.pooled = pooled
}
