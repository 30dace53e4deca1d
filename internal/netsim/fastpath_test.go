package netsim

import (
	"testing"
	"time"

	"falcon/internal/routing"
	"falcon/internal/sim"
)

// benchSink is a minimal device that recycles every frame it receives,
// standing in for a host at the end of a port under test.
type benchSink struct {
	net *Network
	got int
}

func (bs *benchSink) receive(f *Frame) {
	bs.got++
	bs.net.Frames().Release(f)
}

func (bs *benchSink) nodeSim() *sim.Simulator { return bs.net.sim }

var benchLink = LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond}

// warm runs fn enough times to fill every pool (frame pool, port-event
// pool, simulator event pool, timing-wheel slots) so the measured region
// sees only steady-state recycling.
func warm(fn func()) {
	for i := 0; i < 512; i++ {
		fn()
	}
}

func BenchmarkPortSend(b *testing.B) {
	s := sim.New(1)
	n := New(s)
	sink := &benchSink{net: n}
	p := newPort(n, "bench", benchLink, n.sim, sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := n.Frames().Acquire()
		f.Size = 1500
		p.send(f)
		s.Run()
	}
}

func BenchmarkClosTraversal(b *testing.B) {
	s := sim.New(1)
	topo := TwoRack(s, 8, 4, benchLink, benchLink)
	for _, h := range topo.Hosts {
		h.SetHandler(HandlerFunc(func(*Frame) {}))
	}
	src, dst := topo.Hosts[0], topo.Hosts[8] // inter-rack: 3 switch hops
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := src.NewFrame()
		f.Dst = dst.ID
		f.FlowHash = uint64(i)
		f.Size = 1500
		src.Send(f)
		s.Run()
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	s := sim.New(1)
	topo, _ := PointToPoint(s, benchLink)
	h0, h1 := topo.Hosts[0], topo.Hosts[1]
	h0.SetHandler(HandlerFunc(func(*Frame) {}))
	h1.SetHandler(HandlerFunc(func(f *Frame) {
		r := h1.NewFrame()
		r.Dst = f.Src
		r.Size = 64
		h1.Send(r)
	}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := h0.NewFrame()
		f.Dst = h1.ID
		f.Size = 1500
		h0.Send(f)
		s.Run()
	}
}

// TestPortSendZeroAlloc asserts the innermost hot function — commit a frame
// to a port, fire its drain and delivery events — allocates nothing in
// steady state.
func TestPortSendZeroAlloc(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	sink := &benchSink{net: n}
	p := newPort(n, "alloc", benchLink, n.sim, sink)
	op := func() {
		f := n.Frames().Acquire()
		f.Size = 1500
		p.send(f)
		s.Run()
	}
	warm(op)
	if a := testing.AllocsPerRun(1000, op); a != 0 {
		t.Fatalf("port send path: %.2f allocs/op, want 0", a)
	}
	if sink.got == 0 {
		t.Fatal("sink received nothing")
	}
}

// TestSwitchForwardZeroAlloc asserts the switch hop — receive, ECMP hash,
// dense route lookup, egress enqueue — allocates nothing in steady state.
func TestSwitchForwardZeroAlloc(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	sw := n.AddSwitch()
	sink := &benchSink{net: n}
	// Two equal-cost ports so the ECMP arm is exercised too.
	sw.addRoute(0, newPort(n, "a", benchLink, n.sim, sink), newPort(n, "b", benchLink, n.sim, sink))
	var i uint64
	op := func() {
		f := n.Frames().Acquire()
		f.Dst = 0
		f.FlowHash = i
		f.Size = 1500
		i++
		sw.receive(f)
		s.Run()
	}
	warm(op)
	if a := testing.AllocsPerRun(1000, op); a != 0 {
		t.Fatalf("switch forward path: %.2f allocs/op, want 0", a)
	}
}

// TestSwitchPolicyZeroAlloc asserts the pluggable routing decision —
// building the selection Key, the policy dispatch, the queue-depth view
// for adaptive and the spray counter update — adds no allocation to the
// switch hop for any built-in policy.
func TestSwitchPolicyZeroAlloc(t *testing.T) {
	for _, pol := range routing.Policies() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			s := sim.New(1)
			n := New(s)
			sw := n.AddSwitch()
			sw.SetPolicy(pol)
			sink := &benchSink{net: n}
			sw.addRoute(0,
				newPort(n, "a", benchLink, n.sim, sink),
				newPort(n, "b", benchLink, n.sim, sink),
				newPort(n, "c", benchLink, n.sim, sink),
				newPort(n, "d", benchLink, n.sim, sink))
			var i uint64
			op := func() {
				f := n.Frames().Acquire()
				f.Dst = 0
				f.FlowHash = i
				f.Size = 1500
				i++
				sw.receive(f)
				s.Run()
			}
			warm(op)
			if a := testing.AllocsPerRun(1000, op); a != 0 {
				t.Fatalf("%s policy path: %.2f allocs/op, want 0", pol.Name(), a)
			}
			if sink.got == 0 {
				t.Fatal("sink received nothing")
			}
		})
	}
}

// TestHostDeliverZeroAlloc asserts final delivery — tap, handler dispatch,
// frame release — allocates nothing in steady state.
func TestHostDeliverZeroAlloc(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	h := n.AddHost()
	var seen int
	h.SetHandler(HandlerFunc(func(*Frame) { seen++ }))
	h.SetTap(func(*Frame) {})
	op := func() {
		f := n.Frames().Acquire()
		f.Size = 64
		h.receive(f)
	}
	warm(op)
	if a := testing.AllocsPerRun(1000, op); a != 0 {
		t.Fatalf("host deliver path: %.2f allocs/op, want 0", a)
	}
	if seen == 0 {
		t.Fatal("handler never ran")
	}
}

// TestFramePoolRecycles checks the linear ownership contract end to end:
// frames released after delivery come back from Acquire zeroed, and
// hand-built frames pass through Release untouched.
func TestFramePoolRecycles(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	sink := &benchSink{net: n}
	p := newPort(n, "recycle", benchLink, n.sim, sink)

	f := n.Frames().Acquire()
	if !f.pooled {
		t.Fatal("Acquire returned an unpooled frame")
	}
	f.Size = 1000
	f.CE = true
	f.Hops = 3
	f.Payload = "stale"
	p.send(f)
	s.Run()
	g := n.Frames().Acquire()
	if g.Size != 0 || g.CE || g.Hops != 0 || g.Payload != nil {
		t.Fatalf("recycled frame not zeroed: %+v", g)
	}
	if !g.pooled {
		t.Fatal("recycled frame lost its pooled mark")
	}
	n.Frames().Release(g)

	// Hand-built frames bypass the pool entirely.
	hand := &Frame{Size: 5}
	n.Frames().Release(hand)
	if hand.Size != 5 {
		t.Fatal("Release mutated a hand-built frame")
	}
}

// TestDownDropsSeparateCounter checks that administrative SetDown drops
// land in Stats.DownDrops, not Stats.RandomDrops — outage experiments must
// not inflate the random-loss line.
func TestDownDropsSeparateCounter(t *testing.T) {
	s := sim.New(1)
	topo, fwd := PointToPoint(s, benchLink)
	topo.Hosts[1].SetHandler(HandlerFunc(func(*Frame) {}))
	fwd.SetDown(true)
	for i := 0; i < 3; i++ {
		f := topo.Hosts[0].NewFrame()
		f.Dst = 1
		f.Size = 64
		topo.Hosts[0].Send(f)
	}
	s.Run()
	up := topo.Hosts[0].Uplink()
	if up.Stats.TxFrames != 3 {
		t.Fatalf("uplink forwarded %d frames, want 3", up.Stats.TxFrames)
	}
	if fwd.Stats.DownDrops != 3 {
		t.Fatalf("DownDrops = %d, want 3", fwd.Stats.DownDrops)
	}
	if fwd.Stats.RandomDrops != 0 {
		t.Fatalf("RandomDrops = %d, want 0 (down drops must not count as random)", fwd.Stats.RandomDrops)
	}
}

// TestSetRateGbpsKeepsCommittedBytes pins the documented SetRateGbps
// semantics: departure times are committed at enqueue, so a rate change
// never re-times bytes already accepted by the serializer — it applies
// from the next enqueued frame.
func TestSetRateGbpsKeepsCommittedBytes(t *testing.T) {
	s := sim.New(1)
	topo, _ := PointToPoint(s, LinkConfig{GbpsRate: 10, PropDelay: 0})
	var arrivals []sim.Time
	topo.Hosts[1].SetHandler(HandlerFunc(func(*Frame) { arrivals = append(arrivals, s.Now()) }))
	send := func() {
		f := topo.Hosts[0].NewFrame()
		f.Dst = 1
		f.Size = 1000 // 800ns at 10G, 80ns at 100G
		topo.Hosts[0].Send(f)
	}
	up := topo.Hosts[0].Uplink()
	send() // committed: departs at 800ns
	send() // committed: departs at 1600ns
	up.SetRateGbps(100)
	send() // new rate: departs at 1600+80 = 1680ns
	s.Run()
	// The switch hop repeats each serialization at the (unchanged) switch
	// port rate of 10 Gb/s, so host arrivals are uplink departure + 800ns.
	want := []sim.Time{1600, 2400, 3200}
	if len(arrivals) != 3 || arrivals[0] != want[0] || arrivals[1] != want[1] || arrivals[2] != want[2] {
		t.Fatalf("arrivals = %v, want %v (committed bytes re-timed?)", arrivals, want)
	}
}
