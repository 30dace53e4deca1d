package pdl

import (
	"fmt"
	"testing"
	"time"

	"falcon/internal/falcon/fae"
	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// The scoreboard ring grows while packets are in flight, moving every live
// slot, and the PDL calls out — PacketAcked, PostEvent, Send — from places
// that go on to use a slot afterwards. A callee may send, and a send may
// grow the ring, so those places must carry PSNs and re-resolve rather
// than hold a *txPacket. The tests here force a grow inside each such call
// and check the scoreboard against what actually went on the wire.

// growPair is a sender a and a receiver b wired back to back with no FAE,
// so only the test moves a's windows. a's data packets come from a pool,
// and a's callbacks run the test's hooks synchronously inside the PDL.
type growPair struct {
	s    *sim.Simulator
	a, b *Conn
	pool *wire.PacketPool
	rsn  uint64

	drop   func(p *wire.Packet) bool // a→b data packets to lose
	refuse func(p *wire.Packet) bool // requests b's TL turns away

	onAcked func()
	onEvent func(ev fae.Event)
	onSend  func(p *wire.Packet)

	// sent logs the instants each of a's PSNs went on the wire.
	sent map[txRef][]sim.Time
	// grew names the callouts inside which the request ring doubled.
	grew []string
	t    *testing.T
}

func newGrowPair(t *testing.T) *growPair {
	g := &growPair{s: sim.New(7), pool: wire.NewPacketPool(), sent: map[txRef][]sim.Time{}, t: t}
	const latency = 5 * time.Microsecond
	cfg := DefaultConfig()
	cfg.NumFlows = 1
	g.a = NewConn(g.s, 1, cfg, &Callbacks{
		Send: func(pkt *wire.Packet) {
			g.sent[txRef{pkt.Space, pkt.PSN}] = append(g.sent[txRef{pkt.Space, pkt.PSN}], g.s.Now())
			cp := &wire.Packet{}
			cp.CopyFrom(pkt)
			if g.onSend != nil {
				g.onSend(cp)
			}
			if g.drop != nil && g.drop(cp) {
				return
			}
			g.s.After(latency, func() { g.b.HandlePacket(cp, 1) })
		},
		PacketAcked: func(wire.Space, uint32, uint64, wire.Type) {
			if g.onAcked != nil {
				g.onAcked()
			}
		},
		PostEvent: func(ev fae.Event) {
			if g.onEvent != nil {
				g.onEvent(ev)
			}
		},
	})
	g.a.SetPacketPool(g.pool)
	// Pin the congestion window wide open: with no FAE nothing narrows it.
	g.a.flows[0].fcwnd = wire.BitmapBits
	g.b = NewConn(g.s, 1, cfg, &Callbacks{
		Send: func(pkt *wire.Packet) {
			cp := &wire.Packet{}
			cp.CopyFrom(pkt)
			g.s.After(latency, func() { g.a.HandlePacket(cp, 1) })
		},
		Deliver: func(pkt *wire.Packet) DeliverVerdict {
			if g.refuse != nil && g.refuse(pkt) {
				return DeliverVerdict{Kind: DeliverNoResources}
			}
			return DeliverVerdict{}
		},
	})
	g.s.SetObserver(g)
	return g
}

// send hands a fresh pooled request to a.
func (g *growPair) send() {
	p := g.pool.Acquire()
	p.Type, p.RSN, p.Length = wire.TypePushData, g.rsn, 64
	g.rsn++
	g.a.SendPacket(p)
}

// grow sends until the request ring has doubled, noting the callout it
// ran inside.
func (g *growPair) grow(site string) {
	ts := &g.a.tx[wire.SpaceRequest]
	n := len(ts.pkts)
	for i := 0; len(ts.pkts) == n && i <= n; i++ {
		g.send()
	}
	if len(ts.pkts) != n {
		g.grew = append(g.grew, site)
	}
}

// OnEvent checks the sender's scoreboard between every two events.
func (g *growPair) OnEvent(sim.Time, uint64) {
	if err := g.check(); err != nil {
		g.t.Fatalf("at %v: %v", g.s.Now(), err)
	}
}

// check holds a's scoreboard to CheckScoreboard and to the wire log: the
// window fits its power-of-two ring, and every in-flight slot records the
// last time and the number of times its PSN actually went on the wire.
func (g *growPair) check() error {
	c := g.a
	if msg := c.CheckScoreboard(); msg != "" {
		return fmt.Errorf("%s", msg)
	}
	for i := range c.tx {
		ts := &c.tx[i]
		n := int(ts.next - ts.base)
		if n > wire.BitmapBits || n > len(ts.pkts) || len(ts.pkts)&(len(ts.pkts)-1) != 0 {
			return fmt.Errorf("space %d: window %d in a ring of %d", ts.space, n, len(ts.pkts))
		}
		for psn := ts.base; psn != ts.next; psn++ {
			if !ts.inFlight(psn) {
				continue
			}
			tp := ts.slot(psn)
			log := g.sent[txRef{ts.space, psn}]
			if len(log) == 0 || tp.txTime != log[len(log)-1] || int(tp.retx) != len(log)-1 {
				return fmt.Errorf("space %d PSN %d: slot txTime %v retx %d, wire %v", ts.space, psn, tp.txTime, tp.retx, log)
			}
		}
	}
	return nil
}

// retransmits returns how often each request PSN went on the wire again.
func (g *growPair) retransmits() map[uint32]int {
	out := map[uint32]int{}
	for r, log := range g.sent {
		if r.space == wire.SpaceRequest && len(log) > 1 {
			out[r.psn] = len(log) - 1
		}
	}
	return out
}

// TestRingGrowsInsideCallouts fills the minimum ring and then forces it to
// double from inside each callout that is followed by slot use: the TL's
// PacketAcked in the middle of an ACK's scan, the FAE's PostEvent in
// handleNack and onRTO,
// and the NIC's Send under runRack's retransmissions. The scoreboard must
// match the wire after every event, every lost or refused PSN must be
// retransmitted exactly once, and at quiescence every packet is back in
// the pool.
func TestRingGrowsInsideCallouts(t *testing.T) {
	for _, tc := range []struct {
		site  string
		setup func(g *growPair)
		// retx is the retransmission count each request PSN must end with.
		retx func(g *growPair) map[uint32]int
	}{
		{
			site: "markAcked",
			setup: func(g *growPair) {
				// With PSN 0 lost, the first acknowledgement is a SACK
				// above the hole, so the acked slot stays in the window.
				g.a.tlpTimeout = 10 * time.Millisecond
				g.drop = func(p *wire.Packet) bool {
					return p.PSN == 0 && p.Flags&wire.FlagRetransmit == 0
				}
				g.onAcked = func() {
					g.onAcked = nil
					g.grow("markAcked")
				}
			},
			retx: func(*growPair) map[uint32]int { return map[uint32]int{0: 1} },
		},
		{
			site: "handleNack",
			setup: func(g *growPair) {
				refused := false
				g.refuse = func(p *wire.Packet) bool {
					if p.PSN == 3 && !refused {
						refused = true
						return true
					}
					return false
				}
				g.onEvent = func(ev fae.Event) {
					if ev.Kind == fae.EventNack {
						g.onEvent = nil
						g.grow("handleNack")
					}
				}
			},
			retx: func(*growPair) map[uint32]int { return map[uint32]int{3: 1} },
		},
		{
			site: "runRack",
			setup: func(g *growPair) {
				// PSNs 3.. leave a microsecond after 0-2, so their SACKs
				// prove 1 and 2 lost once the reordering window passes.
				g.a.tlpTimeout = 10 * time.Millisecond
				g.drop = func(p *wire.Packet) bool {
					return (p.PSN == 1 || p.PSN == 2) && p.Flags&wire.FlagRetransmit == 0
				}
				g.onSend = func(p *wire.Packet) {
					if p.Flags&wire.FlagRetransmit != 0 {
						g.onSend = nil
						g.grow("runRack")
					}
				}
			},
			retx: func(*growPair) map[uint32]int { return map[uint32]int{1: 1, 2: 1} },
		},
		{
			site: "onRTO",
			setup: func(g *growPair) {
				g.a.tlpTimeout = 10 * time.Millisecond
				blackhole := true
				g.drop = func(*wire.Packet) bool { return blackhole }
				g.onEvent = func(ev fae.Event) {
					if ev.Kind == fae.EventRTO {
						g.onEvent = nil
						blackhole = false
						g.grow("onRTO")
					}
				}
			},
			// The RTO scan re-reads next, so it resends the packets the
			// grow just sent too: every PSN goes out twice, no PSN thrice.
			retx: func(g *growPair) map[uint32]int {
				want := map[uint32]int{}
				for psn := uint32(0); psn < uint32(g.rsn); psn++ {
					want[psn] = 1
				}
				return want
			},
		},
	} {
		t.Run(tc.site, func(t *testing.T) {
			g := newGrowPair(t)
			tc.setup(g)
			for i := 0; i < 3; i++ {
				g.send()
			}
			g.s.After(time.Microsecond, func() {
				for len(g.a.tx[wire.SpaceRequest].pkts) > int(g.rsn) {
					g.send()
				}
			})
			g.s.Run()
			if fmt.Sprint(g.grew) != fmt.Sprint([]string{tc.site}) {
				t.Fatalf("ring grew inside %v, want exactly %s", g.grew, tc.site)
			}
			if err := g.check(); err != nil {
				t.Fatal(err)
			}
			if got, want := g.retransmits(), tc.retx(g); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("retransmissions per PSN %v, want %v", got, want)
			}
			if g.a.Outstanding() != 0 || g.pool.Free() != g.pool.Allocated() {
				t.Fatalf("at quiescence: %d outstanding, pool %d of %d free",
					g.a.Outstanding(), g.pool.Free(), g.pool.Allocated())
			}
		})
	}
}

// TestRingTracksPeakWindow runs closed loops of window W — every
// acknowledgement sends the next packet from inside PacketAcked — over a
// lossy, reordering channel, and requires each ring to end no longer than
// the next power of two at or above the peak next−base its space reached
// (nor shorter than minRing): memory follows what was in flight, not
// the wire.BitmapBits window.
func TestRingTracksPeakWindow(t *testing.T) {
	for _, w := range []int{1, 5, 16, 40, 128} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			p := newPair(t, DefaultConfig())
			rng := p.s.Rand()
			p.dropAB = func(pkt *wire.Packet) bool { return pkt.Type.IsData() && rng.Intn(50) == 0 }
			p.delayAB = func(*wire.Packet) time.Duration { return time.Duration(rng.Intn(3000)) }
			var peak [wire.NumSpaces]int
			send := callbacks(p.a).Send
			callbacks(p.a).Send = func(pkt *wire.Packet) {
				if pkt.Type.IsData() {
					ts := &p.a.tx[pkt.Space]
					peak[pkt.Space] = max(peak[pkt.Space], int(ts.next-ts.base))
				}
				send(pkt)
			}
			const total = 3000
			sent := 0
			post := func() {
				typ := wire.TypePushData
				if sent%3 == 0 {
					typ = wire.TypePullResponse
				}
				p.a.SendPacket(dataPacket(uint64(sent), typ, 1024))
				sent++
			}
			callbacks(p.a).PacketAcked = func(wire.Space, uint32, uint64, wire.Type) {
				if sent < total {
					post()
				}
			}
			for i := 0; i < w; i++ {
				post()
			}
			p.s.Run()
			if sent != total || p.a.Outstanding() != 0 {
				t.Fatalf("closed loop sent %d of %d, %d outstanding", sent, total, p.a.Outstanding())
			}
			for i := range p.a.tx {
				ts := &p.a.tx[i]
				want := minRing
				for want < peak[ts.space] {
					want *= 2
				}
				if len(ts.pkts) != want {
					t.Errorf("space %d: ring of %d after a peak window of %d, want %d",
						ts.space, len(ts.pkts), peak[ts.space], want)
				}
			}
		})
	}
}

// TestCheckScoreboard builds a request window of four PSNs, 1 and 2
// SACKed, and requires CheckScoreboard to pass it, to pass it again once
// the connection has failed and released its packets, and to name each
// corruption of the scoreboard it is meant to catch.
func TestCheckScoreboard(t *testing.T) {
	build := func() (*Conn, *txSpace) {
		c := NewConn(sim.New(1), 1, DefaultConfig(), &Callbacks{Send: func(*wire.Packet) {}})
		for i := 0; i < 4; i++ {
			c.SendPacket(dataPacket(uint64(i), wire.TypePushData, 64))
		}
		ts := &c.tx[wire.SpaceRequest]
		c.processAckInfo(ts, wire.AckInfo{Bitmap: wire.Bitmap{0b0110}}, make([]int, len(c.flows)))
		return c, ts
	}
	c, ts := build()
	if ts.base != 0 || ts.next != 4 || c.Outstanding() != 2 {
		t.Fatalf("window base=%d next=%d outstanding=%d, want 0, 4, 2", ts.base, ts.next, c.Outstanding())
	}
	if msg := c.CheckScoreboard(); msg != "" {
		t.Fatalf("consistent scoreboard: %s", msg)
	}
	c.Fail()
	if msg := c.CheckScoreboard(); msg != "" {
		t.Fatalf("failed connection: %s", msg)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(c *Conn, ts *txSpace)
	}{
		{"acked PSN parked", func(_ *Conn, ts *txSpace) { ts.nackedB.Set(1) }},
		{"acked bit at next-base", func(_ *Conn, ts *txSpace) { ts.acked.Set(4) }},
		{"parked bit at next-base", func(_ *Conn, ts *txSpace) { ts.nackedB.Set(4) }},
		{"flow count", func(c *Conn, _ *txSpace) { c.flows[0].outstanding++ }},
		{"in-flight slot without packet", func(_ *Conn, ts *txSpace) { ts.slot(0).pkt = nil }},
		{"in-flight slot with another PSN's packet", func(_ *Conn, ts *txSpace) { ts.slot(3).pkt = &wire.Packet{PSN: 7} }},
		{"acked slot with packet", func(_ *Conn, ts *txSpace) { ts.slot(1).pkt = &wire.Packet{PSN: 1} }},
	} {
		c, ts := build()
		tc.corrupt(c, ts)
		if msg := c.CheckScoreboard(); msg == "" {
			t.Errorf("%s: not reported", tc.name)
		} else {
			t.Logf("%s: %s", tc.name, msg)
		}
	}
}
