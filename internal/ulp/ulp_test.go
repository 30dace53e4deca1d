package ulp

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// link stands in for the PDL under one end of a bare TL pair: it numbers
// packets, delivers each to the peer after delay(p), acks accepted ones
// back with the peer's completion horizon, and retries refused ones.
type link struct {
	s          *sim.Simulator
	self, peer *tl.Conn
	delay      func(p *wire.Packet) time.Duration
	psn        [wire.NumSpaces]uint32
	// responses records the RSNs of the pull responses delivered to peer,
	// in arrival order.
	responses []uint64
}

func (l *link) SendPacket(p *wire.Packet) {
	p.Space = wire.SpaceOf(p.Type)
	p.PSN = l.psn[p.Space]
	l.psn[p.Space]++
	d := time.Microsecond
	if l.delay != nil {
		d = l.delay(p)
	}
	l.s.After(d, func() { l.deliver(p) })
}

func (l *link) deliver(p *wire.Packet) {
	if p.Type == wire.TypePullResponse {
		l.responses = append(l.responses, p.RSN)
	}
	if l.peer.Deliver(p).Kind != pdl.DeliverAccept {
		l.s.After(20*time.Microsecond, func() { l.deliver(p) })
		return
	}
	l.s.After(time.Microsecond, func() {
		l.self.PacketAcked(p.Space, p.PSN, p.RSN, p.Type)
		l.self.Completed(l.peer.CompletedRSN())
	})
}

func (l *link) SendExceptionNack(wire.Space, uint32, uint64, wire.NackCode, time.Duration) {}

// memTarget serves pulls from mem at the request's address and records
// every request it sees.
type memTarget struct {
	mem  []byte
	reqs []request
}

type request struct {
	pull bool
	addr uint64
	n    uint32
}

func (h *memTarget) HandlePush(_ uint64, p *wire.Packet) tl.TargetVerdict {
	h.reqs = append(h.reqs, request{addr: p.Addr, n: p.Length})
	return tl.TargetVerdict{}
}

func (h *memTarget) HandlePull(_ uint64, p *wire.Packet) ([]byte, uint32, tl.TargetVerdict) {
	h.reqs = append(h.reqs, request{pull: true, addr: p.Addr, n: p.PullLength})
	var data []byte
	if h.mem != nil && p.Addr+uint64(p.PullLength) <= uint64(len(h.mem)) {
		data = h.mem[p.Addr : p.Addr+uint64(p.PullLength)]
	}
	return data, p.PullLength, tl.TargetVerdict{}
}

// bed is a bare TL pair: a initiates, b serves from its memTarget.
type bed struct {
	s      *sim.Simulator
	a, b   *tl.Conn
	la, lb *link
	target *memTarget
}

func newBed(cfg tl.Config, resA tl.ResourceConfig) *bed {
	s := sim.New(1)
	e := &bed{s: s, target: &memTarget{mem: pattern(1 << 20)}}
	e.la, e.lb = &link{s: s}, &link{s: s}
	e.a = tl.NewConn(s, 1, cfg, tl.NewResources(resA), e.la, nil)
	e.b = tl.NewConn(s, 1, cfg, tl.NewResources(tl.DefaultResourceConfig()), e.lb, e.target)
	e.la.self, e.la.peer = e.a, e.b
	e.lb.self, e.lb.peer = e.b, e.a
	return e
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// result is one completion as the port's function saw it.
type result struct {
	ctx  int
	data []byte
	err  error
}

func collect(conn *tl.Conn, out *[]result) *Port[int] {
	return NewPort(conn, func(ctx int, data []byte, err error) {
		*out = append(*out, result{ctx, data, err})
	})
}

// TestSegmentsAndAddresses posts a push addressed by offset, a pull at a
// fixed base and a zero-byte push. Each op is cut by the MTU with a short
// last segment, the zero-byte op is still one transaction, and every
// descriptor (one per op in flight at once) is back in its pool at
// quiescence.
func TestSegmentsAndAddresses(t *testing.T) {
	e := newBed(tl.DefaultConfig(), tl.DefaultResourceConfig())
	var got []result
	port := collect(e.a, &got)
	var pushes, pulls sim.FreeList[Op[int]]
	const size = 2*tl.MTU + 100
	port.Post(&pushes, Msg{Op: 1, Addr: 1000, Size: size}, 1)
	port.Post(&pulls, Msg{Pull: true, Fixed: true, Op: 2, Addr: 7<<32 | size, Size: size}, 2)
	port.Post(&pushes, Msg{Op: 3, Addr: 50}, 3)
	e.s.Run()

	want := []request{
		{false, 1000, tl.MTU}, {false, 1000 + tl.MTU, tl.MTU}, {false, 1000 + 2*tl.MTU, 100},
		{true, 7<<32 | size, tl.MTU}, {true, 7<<32 | size, tl.MTU}, {true, 7<<32 | size, 100},
		{false, 50, 0},
	}
	if !slices.Equal(e.target.reqs, want) {
		t.Fatalf("target saw %v, want %v", e.target.reqs, want)
	}
	if len(got) != 3 || got[0].ctx != 1 || got[1].ctx != 2 || got[2].ctx != 3 {
		t.Fatalf("completions %v, want contexts 1, 2, 3", got)
	}
	for _, r := range got {
		if r.err != nil {
			t.Fatalf("op %d failed: %v", r.ctx, r.err)
		}
	}
	if port.Out() != 0 || pushes.Free() != 2 || pulls.Free() != 1 {
		t.Fatalf("%d descriptors out, %d push and %d pull pooled; want 0, 2, 1", port.Out(), pushes.Free(), pulls.Free())
	}
}

// TestPullReassemblesInOrderUnordered delays each pull response less than
// the one before it on an unordered connection, so the segments of a
// 64 KiB pull complete in reverse; the completion still carries the bytes
// in address order.
func TestPullReassemblesInOrderUnordered(t *testing.T) {
	cfg := tl.DefaultConfig()
	cfg.Ordered = false
	e := newBed(cfg, tl.DefaultResourceConfig())
	e.lb.delay = func(p *wire.Packet) time.Duration {
		return time.Duration(40-p.RSN) * time.Microsecond
	}
	var got []result
	port := collect(e.a, &got)
	var pulls sim.FreeList[Op[int]]
	const base, size = 3000, 16*tl.MTU - 5
	port.Post(&pulls, Msg{Pull: true, Addr: base, Size: size}, 9)
	e.s.Run()
	if slices.IsSorted(e.lb.responses) {
		t.Fatalf("responses arrived in order %v: the test did not reorder them", e.lb.responses)
	}
	if len(got) != 1 || got[0].err != nil || !bytes.Equal(got[0].data, e.target.mem[base:base+size]) {
		t.Fatalf("completion %d of 1: %d bytes, err %v; want the target's bytes in order", len(got), len(got[0].data), got[0].err)
	}
	if port.Out() != 0 {
		t.Fatalf("%d descriptors out at quiescence", port.Out())
	}
}

// TestDescriptorReusedFromCompletion posts each pull from inside the
// previous one's completion. The descriptor is back in the pool before the
// completion runs, so the chain runs on one descriptor, including when a
// later pull needs more segment slots than it has.
func TestDescriptorReusedFromCompletion(t *testing.T) {
	e := newBed(tl.DefaultConfig(), tl.DefaultResourceConfig())
	sizes := []int{5000, 100, 40000, tl.MTU, 65536, 0, 12345}
	var pulls sim.FreeList[Op[int]]
	var port *Port[int]
	done := 0
	port = NewPort(e.a, func(i int, data []byte, err error) {
		addr := uint64(i) * 1000
		if err != nil || !bytes.Equal(data, e.target.mem[addr:addr+uint64(sizes[i])]) {
			t.Errorf("pull %d: %d bytes, err %v", i, len(data), err)
		}
		if port.Out() != 0 || pulls.Free() != 1 {
			t.Errorf("pull %d: %d out and %d pooled inside the completion, want 0 and 1", i, port.Out(), pulls.Free())
		}
		if done++; done < len(sizes) {
			port.Post(&pulls, Msg{Pull: true, Addr: uint64(done) * 1000, Size: sizes[done]}, done)
		}
	})
	port.Post(&pulls, Msg{Pull: true, Size: sizes[0]}, 0)
	e.s.Run()
	if done != len(sizes) || port.Out() != 0 || pulls.Free() != 1 {
		t.Fatalf("%d of %d pulls, %d out, %d pooled; want all, 0, 1", done, len(sizes), port.Out(), pulls.Free())
	}
}

// TestPoolBalanceWhenConnectionDies starves the initiator's RX-response
// pool so a 64 KiB pull is refused mid-op with segments in flight, and a
// push waits behind it. Try is refused while they wait, though the TL
// would admit its push. Killing the
// connection fails the in-flight segments through the TL and the rest
// when the parked work runs again: each op completes once, in error, and
// no descriptor is left out.
func TestPoolBalanceWhenConnectionDies(t *testing.T) {
	rc := tl.DefaultResourceConfig()
	rc.Pools[tl.PoolRxResp].Bytes = 4 * tl.MTU
	cfg := tl.DefaultConfig()
	cfg.Backpressure = tl.BackpressureNone // only the full pool refuses
	e := newBed(cfg, rc)
	var got []result
	port := collect(e.a, &got)
	var pushes, pulls sim.FreeList[Op[int]]
	port.Post(&pulls, Msg{Pull: true, Size: 16 * tl.MTU}, 1)
	port.Post(&pushes, Msg{Size: 2 * tl.MTU}, 2)
	if e.a.Parked() != 2 || e.a.Stats.Pulls == 0 {
		t.Fatalf("%d parked after %d pulls issued, want the pull refused mid-op and both waiting", e.a.Parked(), e.a.Stats.Pulls)
	}
	if err := port.Try(&pushes, Msg{Size: 8}, 3); !errors.Is(err, tl.ErrBackpressured) {
		t.Fatalf("Try behind parked work: %v, want ErrBackpressured", err)
	}
	if port.Out() != 2 {
		t.Fatalf("%d descriptors out with two ops in flight", port.Out())
	}
	lost := errors.New("link lost")
	e.a.Fail(lost)
	e.s.Run()
	if len(got) != 2 || got[0].ctx != 1 || got[1].ctx != 2 {
		t.Fatalf("completions %v, want ops 1 and 2 once each", got)
	}
	for _, r := range got {
		if !errors.Is(r.err, lost) || r.data != nil {
			t.Fatalf("op %d completed with %d bytes, err %v; want no bytes and the connection's error", r.ctx, len(r.data), r.err)
		}
	}
	if port.Out() != 0 || e.a.Parked() != 0 {
		t.Fatalf("%d descriptors out and %d parked after the connection died", port.Out(), e.a.Parked())
	}
	// On the dead connection a post fails at once, a Try is refused.
	port.Post(&pushes, Msg{Size: 10}, 4)
	if err := port.Try(&pulls, Msg{Pull: true, Size: 8}, 5); !errors.Is(err, lost) {
		t.Fatalf("Try on a dead connection: %v", err)
	}
	if len(got) != 3 || got[2].ctx != 4 || port.Out() != 0 {
		t.Fatalf("completions %v and %d out after posting on a dead connection", got, port.Out())
	}
}
