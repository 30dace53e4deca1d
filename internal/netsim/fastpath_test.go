package netsim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

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

var benchLink = LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond}

// warm runs fn enough times to fill every pool and ring (frame pool,
// simulator event pool, timing-wheel slots, port drain rings) so the
// measured region sees only steady-state recycling.
func warm(fn func()) {
	for i := 0; i < 512; i++ {
		fn()
	}
}

func BenchmarkPortSend(b *testing.B) {
	s := sim.New(1)
	n := New(s)
	sink := &benchSink{net: n}
	p := newPort(n, "bench", benchLink, sink)
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
// to a port, fire its departure and arrival actions — allocates nothing in
// steady state, with one frame in flight and with a backlog of 64.
func TestPortSendZeroAlloc(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	sink := &benchSink{net: n}
	p := newPort(n, "alloc", benchLink, sink)
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

	t.Run("backlogged", func(t *testing.T) {
		const backlog = 64
		op := func() {
			for i := 0; i < backlog; i++ {
				f := n.Frames().Acquire()
				f.Size = 1500
				p.send(f)
			}
			if p.QueuedBytes() != backlog*1500 {
				t.Fatalf("queued %d bytes, want %d", p.QueuedBytes(), backlog*1500)
			}
			s.Run()
		}
		warm(op)
		if a := testing.AllocsPerRun(1000, op); a != 0 {
			t.Fatalf("backlogged port send path: %.2f allocs/op, want 0", a)
		}
		if len(p.drains) < backlog || p.QueuedBytes() != 0 {
			t.Fatalf("drain ring %d slots, %d bytes queued after the run; want >= %d and 0",
				len(p.drains), p.QueuedBytes(), backlog)
		}
	})
}

// drainModel drives one port with random bursts, gaps, sizes and rate
// changes, and holds QueuedBytes to a model after every simulator event:
// the sum of the sizes of committed frames whose departure has not fired.
// It mirrors the simulator's sequence counter (the driver, and each
// committed frame's departure then arrival, take consecutive numbers), so
// it knows which event is which frame's departure and when that departure
// is due, independently of the port's ring.
type drainModel struct {
	t   *testing.T
	s   *sim.Simulator
	n   *Network
	p   *Port
	rng *rand.Rand

	seq     uint64 // the simulator's next sequence number
	driver  uint64 // the driver's pending event
	due     map[uint64]drainDue
	arrival map[uint64]bool
	busy    sim.Time
	ps      int64
	queued  int
	sent    int
	dropped uint64 // frames the full queue turned away
	rounds  int
}

type drainDue struct {
	at   sim.Time
	size int
}

// schedule re-arms the driver d from now.
func (m *drainModel) schedule(d time.Duration) {
	m.driver = m.seq
	m.seq++
	m.s.AtAction(m.s.Now().Add(d), m)
}

func (m *drainModel) send(size int) {
	m.sent++
	f := m.n.Frames().Acquire()
	f.Size = size
	if m.queued+size > DefaultQueueBytes {
		m.dropped++
		m.p.send(f)
		if m.p.Stats.QueueDrops != m.dropped {
			m.t.Fatalf("after %d sends: %d queue drops, model %d", m.sent, m.p.Stats.QueueDrops, m.dropped)
		}
		m.check()
		return
	}
	start := m.busy
	if now := m.s.Now(); start < now {
		start = now
	}
	m.busy = start.Add(time.Duration(int64(size) * m.ps / 1000))
	m.due[m.seq] = drainDue{m.busy, size}
	m.arrival[m.seq+1] = true
	m.seq += 2
	m.queued += size
	m.p.send(f)
	m.check()
}

func (m *drainModel) check() {
	if got := m.p.QueuedBytes(); got != m.queued {
		m.t.Fatalf("at %v after %d sends: QueuedBytes = %d, model %d", m.s.Now(), m.sent, got, m.queued)
	}
}

// RunAction is the driver: a burst of 0–4 same-instant sends (one burst of
// 1100 frames of at most 800 bytes, to grow the ring past 1024 and fill
// the port's DefaultQueueBytes), sometimes a rate change with frames
// still queued, then a zero or random gap.
func (m *drainModel) RunAction() {
	m.rounds++
	burst, maxSize := m.rng.Intn(5), 9000
	if m.rounds == 200 {
		burst, maxSize = 1100, 800
	}
	for i := 0; i < burst; i++ {
		size := 1 + m.rng.Intn(maxSize)
		if m.rng.Intn(4) == 0 {
			size = 1
		}
		m.send(size)
	}
	if m.rng.Intn(8) == 0 {
		gbps := []float64{10, 100, 400, 8000}[m.rng.Intn(4)]
		m.p.SetRateGbps(gbps)
		m.ps = psPerByte(gbps)
	}
	if m.rounds < 2000 {
		var gap time.Duration
		if m.rng.Intn(3) > 0 {
			gap = time.Duration(m.rng.Intn(3000))
		}
		m.schedule(gap)
	}
}

// OnEvent checks the state the previous event left, then retires the
// model's frame if this event is its departure.
func (m *drainModel) OnEvent(at sim.Time, seq uint64) {
	m.check()
	if d, ok := m.due[seq]; ok {
		if at != d.at {
			m.t.Fatalf("departure seq %d fired at %v, model %v", seq, at, d.at)
		}
		delete(m.due, seq)
		m.queued -= d.size
		return
	}
	if m.arrival[seq] {
		delete(m.arrival, seq)
		return
	}
	if seq != m.driver {
		m.t.Fatalf("unexpected event seq %d at %v", seq, at)
	}
}

// TestPortDrainMatchesModel holds the port's drain ring to drainModel
// across zero-gap same-instant sends, 1-byte frames that serialize in
// 0 ns on fast links, rate changes mid-queue, ring growth from 8 to
// more than 1024 slots and drops at a full queue.
func TestPortDrainMatchesModel(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	link := LinkConfig{GbpsRate: 100, PropDelay: time.Microsecond}
	m := &drainModel{
		t: t, s: s, n: n, rng: rand.New(rand.NewSource(30)),
		p:   newPort(n, "drain", link, &benchSink{net: n}),
		due: map[uint64]drainDue{}, arrival: map[uint64]bool{},
		ps: psPerByte(link.GbpsRate),
	}
	s.SetObserver(m)
	m.schedule(0)
	s.Run()
	m.check()
	if m.queued != 0 || len(m.due) != 0 || len(m.arrival) != 0 {
		t.Fatalf("after the run: %d bytes, %d departures, %d arrivals outstanding in the model",
			m.queued, len(m.due), len(m.arrival))
	}
	if len(m.p.drains) < 1024 || m.dropped == 0 || m.p.Stats.QueueDrops != m.dropped {
		t.Fatalf("drain ring grew to %d slots with %d queue drops (model %d); want >= 1024 and the model's, at least one",
			len(m.p.drains), m.p.Stats.QueueDrops, m.dropped)
	}
}

// TestPortLayout pins what the departure path relies on: queuedBytes,
// the drain ring's head and tail, and the ring's pointer and length words
// sit in one 64-byte line of the Port, and the Port's size is a multiple
// of 64 so that the allocator aligns that line to a cache line.
func TestPortLayout(t *testing.T) {
	var p Port
	if size := unsafe.Sizeof(p); size%64 != 0 {
		t.Errorf("Port is %d bytes, not a multiple of 64", size)
	}
	line := unsafe.Offsetof(p.queuedBytes) / 64
	ring := unsafe.Offsetof(p.drains)
	for _, f := range []struct {
		name string
		off  uintptr
		size uintptr
	}{
		{"queuedBytes", unsafe.Offsetof(p.queuedBytes), unsafe.Sizeof(p.queuedBytes)},
		{"head", unsafe.Offsetof(p.head), unsafe.Sizeof(p.head)},
		{"tail", unsafe.Offsetof(p.tail), unsafe.Sizeof(p.tail)},
		{"drains pointer", ring, unsafe.Sizeof(uintptr(0))},
		{"drains length", ring + unsafe.Sizeof(uintptr(0)), unsafe.Sizeof(0)},
	} {
		if f.off/64 != line || (f.off+f.size-1)/64 != line {
			t.Errorf("Port.%s at bytes [%d, %d) leaves line %d (Port is %d bytes)",
				f.name, f.off, f.off+f.size, line, unsafe.Sizeof(p))
		}
	}
}

// TestFrameLayout pins the frame at 96 bytes with the hop's device first:
// every hop touches the frame, and pooled shares CE's word rather than
// padding a word of its own.
func TestFrameLayout(t *testing.T) {
	var f Frame
	if size := unsafe.Sizeof(f); size > 96 {
		t.Errorf("Frame is %d bytes, want at most 96", size)
	}
	if off := unsafe.Offsetof(f.to); off != 0 {
		t.Errorf("Frame.to at byte %d, want 0", off)
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
	sw.addRoute(0, newPort(n, "a", benchLink, sink), newPort(n, "b", benchLink, sink))
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
				newPort(n, "a", benchLink, sink),
				newPort(n, "b", benchLink, sink),
				newPort(n, "c", benchLink, sink),
				newPort(n, "d", benchLink, sink))
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

// TestFramePoolBlockFillsSizeClass measures what one refill of the frame
// pool costs the heap: the bytes allocated per block stay within 1 % of
// the framePoolBlock frames asked for, so the block fills its size class.
func TestFramePoolBlockFillsSizeClass(t *testing.T) {
	const blocks = 64
	var p FramePool
	// The first refill also grows the free slice; later ones reuse it.
	for i := 0; i < framePoolBlock; i++ {
		p.Acquire()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < blocks*framePoolBlock; i++ {
		p.Acquire()
	}
	runtime.ReadMemStats(&after)
	perBlock := float64(after.TotalAlloc-before.TotalAlloc) / blocks
	requested := float64(framePoolBlock * unsafe.Sizeof(Frame{}))
	if perBlock > 1.01*requested {
		t.Fatalf("a block of %d frames takes %.0f B for the %.0f B asked for, %.1f %% more",
			framePoolBlock, perBlock, requested, 100*(perBlock/requested-1))
	}
}

// TestFramePoolRecycles checks the linear ownership contract end to end:
// frames released after delivery come back from Acquire zeroed, and
// hand-built frames pass through Release untouched.
func TestFramePoolRecycles(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	sink := &benchSink{net: n}
	p := newPort(n, "recycle", benchLink, sink)

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
