package tl

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// captureHandler records, per served RSN, the packet its handler saw
// (by value) and the serve order; verdict may refuse a request.
type captureHandler struct {
	seen    map[uint64]wire.Packet
	order   []uint64
	verdict func(rsn uint64) TargetVerdict
}

func (h *captureHandler) handle(rsn uint64, p *wire.Packet) TargetVerdict {
	if h.verdict != nil {
		if v := h.verdict(rsn); v.Kind != TargetOK {
			return v
		}
	}
	// CopyFrom keeps the copy out of the pool, so that it compares equal
	// to a hand-built packet.
	var seen wire.Packet
	seen.CopyFrom(p)
	h.seen[rsn] = seen
	h.order = append(h.order, rsn)
	return TargetVerdict{}
}

func (h *captureHandler) HandlePush(rsn uint64, p *wire.Packet) TargetVerdict {
	return h.handle(rsn, p)
}

func (h *captureHandler) HandlePull(rsn uint64, p *wire.Packet) ([]byte, uint32, TargetVerdict) {
	return nil, p.PullLength, h.handle(rsn, p)
}

// servedProbe counts OnRequestServed per RSN.
type servedProbe map[uint64]int

func (s servedProbe) OnRequestServed(_ *Conn, rsn uint64) { s[rsn]++ }
func (servedProbe) OnCompletion(*Conn, uint64, error)     {}

// nackCounter is a Control that records the exception NACKs it is asked
// to send.
type nackCounter struct{ nacks *[]wire.NackCode }

func (nackCounter) SendPacket(*wire.Packet) {}
func (n nackCounter) SendExceptionNack(_ wire.Space, _ uint32, _ uint64, code wire.NackCode, _ time.Duration) {
	*n.nacks = append(*n.nacks, code)
}

// targetBed is one target-side TL connection fed packets directly, as the
// PDL's Deliver upcall would, with a packet pool for what it holds.
type targetBed struct {
	res   *Resources
	pool  *wire.PacketPool
	c     *Conn
	h     *captureHandler
	probe servedProbe
	nacks []wire.NackCode
}

func newTargetBed(ordered bool) *targetBed {
	cfg := DefaultConfig()
	cfg.Ordered = ordered
	b := &targetBed{res: NewResources(DefaultResourceConfig()), pool: wire.NewPacketPool(), probe: servedProbe{}}
	b.h = &captureHandler{seen: map[uint64]wire.Packet{}}
	b.c = NewConn(sim.New(1), 1, cfg, b.res, nackCounter{&b.nacks}, b.h)
	b.c.SetPacketPool(b.pool)
	b.c.SetProbe(b.probe)
	return b
}

// checkReturned fails unless every packet the connection took from its
// pool to hold a request is back, and no RxReq reservation is left.
func (b *targetBed) checkReturned(t *testing.T) {
	t.Helper()
	if free, alloc := b.pool.Free(), b.pool.Allocated(); free != alloc {
		t.Errorf("pool: %d of %d packets free, want all back", free, alloc)
	}
	if u := heldContexts(b.c); u != 0 {
		t.Errorf("RxReq usage %d, want 0", u)
	}
}

// request builds a request carrying every field the rdma and nvme targets
// read.
func request(typ wire.Type, rsn uint64) *wire.Packet {
	return &wire.Packet{
		Type:       typ,
		Space:      wire.SpaceRequest,
		PSN:        uint32(100 + rsn),
		RSN:        rsn,
		UlpOp:      uint8(3 + rsn),
		Addr:       0xabc0 + rsn,
		Length:     uint32(64 + rsn),
		PullLength: uint32(512 + rsn),
		Data:       []byte{1, 2, 3, byte(rsn)},
	}
}

// deliver hands p to the connection, then scribbles over it the way the
// receive path recycles a wire packet once Deliver returns.
func (b *targetBed) deliver(t *testing.T, p *wire.Packet) {
	t.Helper()
	if v := b.c.Deliver(p); v.Kind != pdl.DeliverAccept {
		t.Fatalf("RSN %d: verdict %v, want accept", p.RSN, v.Kind)
	}
	*p = wire.Packet{}
}

func TestGapBuffersThenServesInOrder(t *testing.T) {
	b := newTargetBed(true)
	b.deliver(t, request(wire.TypePushData, 0))
	b.deliver(t, request(wire.TypePushData, 2))
	b.deliver(t, request(wire.TypePushData, 3))
	if got := b.c.BufferedRSNs(); !slices.Equal(got, []uint64{2, 3}) {
		t.Fatalf("buffered %v ahead of the gap, want [2 3]", got)
	}
	if !slices.Equal(b.h.order, []uint64{0}) {
		t.Fatalf("served %v before the gap closed, want [0]", b.h.order)
	}
	b.deliver(t, request(wire.TypePushData, 1))
	if !slices.Equal(b.h.order, []uint64{0, 1, 2, 3}) {
		t.Fatalf("served %v, want [0 1 2 3]", b.h.order)
	}
	for rsn := uint64(0); rsn < 4; rsn++ {
		if b.probe[rsn] != 1 {
			t.Errorf("RSN %d: OnRequestServed fired %d times, want 1", rsn, b.probe[rsn])
		}
	}
	if b.c.ReorderBacklog() != 0 || b.c.CompletedRSN() != 4 {
		t.Fatalf("backlog %d, expected RSN %d; want 0, 4", b.c.ReorderBacklog(), b.c.CompletedRSN())
	}
	if b.pool.Allocated() == 0 {
		t.Fatal("buffered requests took no packet from the pool")
	}
	b.checkReturned(t)
}

// TestRNROnBufferedRequest refuses a request that waited ahead of a gap,
// when the drain reaches it: its held packet goes back to the pool and its
// reservation is released, and the retry is served from the wire packet.
func TestRNROnBufferedRequest(t *testing.T) {
	b := newTargetBed(true)
	b.h.verdict = func(rsn uint64) TargetVerdict {
		if rsn == 2 {
			return TargetVerdict{Kind: TargetRNR, RetryDelay: 10 * time.Microsecond}
		}
		return TargetVerdict{}
	}
	for _, rsn := range []uint64{0, 2, 1} {
		b.deliver(t, request(wire.TypePushData, rsn))
	}
	if !slices.Equal(b.h.order, []uint64{0, 1}) || b.c.CompletedRSN() != 2 || b.c.ReorderBacklog() != 0 {
		t.Fatalf("served %v, expected RSN %d, backlog %d; want [0 1], 2, 0",
			b.h.order, b.c.CompletedRSN(), b.c.ReorderBacklog())
	}
	if !slices.Equal(b.nacks, []wire.NackCode{wire.NackRNR}) {
		t.Fatalf("NACKs sent %v, want one RNR", b.nacks)
	}
	b.checkReturned(t)
	b.h.verdict = nil
	b.deliver(t, request(wire.TypePushData, 2))
	if !slices.Equal(b.h.order, []uint64{0, 1, 2}) || b.probe[2] != 1 {
		t.Fatalf("retry: served %v, RSN 2 served %d times; want [0 1 2], 1", b.h.order, b.probe[2])
	}
	b.checkReturned(t)
}

// TestFailReturnsBufferedRequests fails a connection that holds requests
// ahead of a gap: their packets go back to the pool and their RxReq
// reservations are released, and none of them is served.
func TestFailReturnsBufferedRequests(t *testing.T) {
	b := newTargetBed(true)
	for _, rsn := range []uint64{0, 2, 3, 5} {
		b.deliver(t, request(wire.TypePushData, rsn))
	}
	if b.c.ReorderBacklog() != 3 || heldContexts(b.c) != 3 {
		t.Fatalf("backlog %d, RxReq usage %d before Fail; want 3, 3", b.c.ReorderBacklog(), heldContexts(b.c))
	}
	b.c.Fail(nil)
	if b.c.ReorderBacklog() != 0 || !slices.Equal(b.h.order, []uint64{0}) {
		t.Fatalf("after Fail: backlog %d, served %v; want 0, [0]", b.c.ReorderBacklog(), b.h.order)
	}
	b.checkReturned(t)
}

func TestRNROnHeadOfLineRequest(t *testing.T) {
	b := newTargetBed(true)
	b.h.verdict = func(rsn uint64) TargetVerdict {
		return TargetVerdict{Kind: TargetRNR, RetryDelay: 10 * time.Microsecond}
	}
	b.deliver(t, request(wire.TypePushData, 0))
	if b.c.CompletedRSN() != 0 || b.c.reorderBuf.Cap() != 0 || len(b.probe) != 0 {
		t.Fatalf("after RNR: expected RSN %d, reorder slots %d, served %v; want 0, 0, none",
			b.c.CompletedRSN(), b.c.reorderBuf.Cap(), b.probe)
	}
	if !slices.Equal(b.nacks, []wire.NackCode{wire.NackRNR}) {
		t.Fatalf("NACKs sent %v, want one RNR", b.nacks)
	}
	// Released exactly once: a second release would panic (over-release)
	// and a missing one would leave the reservation held.
	if u := heldContexts(b.c); u != 0 {
		t.Fatalf("RxReq usage %d after RNR, want 0", u)
	}
	// The retry is served normally.
	b.h.verdict = nil
	b.deliver(t, request(wire.TypePushData, 0))
	if b.c.CompletedRSN() != 1 || b.probe[0] != 1 {
		t.Fatalf("retry: expected RSN %d, served %d times; want 1, 1", b.c.CompletedRSN(), b.probe[0])
	}
}

// TestHandlerSeesSamePacketOnBothPaths delivers requests once in order
// (served from the wire packet) and once after a gap (served from the
// reorder buffer's hold, a pooled copy of these hand-built packets) and
// holds every field the handler sees to what was sent.
func TestHandlerSeesSamePacketOnBothPaths(t *testing.T) {
	for _, typ := range []wire.Type{wire.TypePushData, wire.TypePullRequest} {
		b := newTargetBed(true)
		// RSN 0 in order; RSN 2 ahead of the gap; RSN 1 in order.
		for _, rsn := range []uint64{0, 2, 1} {
			b.deliver(t, request(typ, rsn))
		}
		for rsn := uint64(0); rsn < 3; rsn++ {
			if got, want := b.h.seen[rsn], *request(typ, rsn); !reflect.DeepEqual(got, want) {
				t.Errorf("%v RSN %d: handler saw %+v, sent %+v", typ, rsn, got, want)
			}
		}
	}
}

// TestHeldPooledRequestIsShared holds a pooled request that arrives ahead
// of a gap by reference: the TL takes a hold of its own instead of a copy,
// so the packet survives the receive path's release, reaches the handler
// intact once the gap fills, and then goes back to the pool.
func TestHeldPooledRequestIsShared(t *testing.T) {
	b := newTargetBed(true)
	b.deliver(t, request(wire.TypePushData, 0))
	p := b.pool.Acquire()
	p.CopyFrom(request(wire.TypePushData, 2))
	if v := b.c.Deliver(p); v.Kind != pdl.DeliverAccept {
		t.Fatalf("RSN 2: verdict %v, want accept", v.Kind)
	}
	b.pool.Release(p) // the receive path's hold
	if inUse := b.pool.Allocated() - b.pool.Free(); inUse != 1 {
		t.Fatalf("%d pooled packets in use while RSN 2 is held, want 1 (the wire packet itself)", inUse)
	}
	b.deliver(t, request(wire.TypePushData, 1))
	if !slices.Equal(b.h.order, []uint64{0, 1, 2}) {
		t.Fatalf("served %v, want [0 1 2]", b.h.order)
	}
	if got, want := b.h.seen[2], *request(wire.TypePushData, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("RSN 2: handler saw %+v, sent %+v", got, want)
	}
	b.checkReturned(t)
}
