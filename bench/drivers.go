package main

import (
	"math/rand"
	"runtime"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/fae"
	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/nic"
	"falcon/internal/rdma"
	"falcon/internal/sim"
)

// Layer drivers: for a layer with no seam to time it in place, a driver
// calls the layer's public functions in isolation, at the workload's own
// population (pending timers, topology, connections per node, op kinds and
// sizes, loss), and reports host ns per unit of that layer's work. Drivers
// that need a simulator subtract the scheduler's own cost for the same
// events, so a unit cost is the layer's code alone and the shares can be
// added up.

// driverScale scales how much work every driver measures (tests shrink it);
// driverBudget stops a driver whose units stop arriving.
var driverScale = 1.0

const driverBudget = 3 * time.Second

func scaled(n int) uint64 { return uint64(float64(n) * driverScale) }

// population is what a driver needs to know about the workload.
type population struct {
	shape         topoShape
	pairs         [][2]int // host index pairs that talk
	conns         int      // connections in the world
	connsPerNode  int      // most connections terminating on one node, either side
	initPerNode   int      // most connections initiated from one node
	targetPerNode int      // most connections targeting one node
	inflight      int      // transactions one connection keeps outstanding
	segment       int      // bytes of a typical transaction (<= MTU)
	opBytes       int      // bytes of a typical op
	pull          bool     // transactions are Pulls (Reads)
	mixed         bool     // Pushes and Pulls alternate
	pathLoss      float64  // one-way packet loss probability
	nicCfg        nic.Config
	faeCfg        fae.Config
}

// topoShape rebuilds the workload's fabric: racks == 0 is a star of perRack hosts.
type topoShape struct{ racks, perRack, spines int }

func (sh topoShape) build(s *sim.Simulator) *netsim.Topology {
	if sh.racks == 0 {
		return netsim.Star(s, sh.perRack, accessLink)
	}
	return netsim.Clos(s, sh.racks, sh.perRack, sh.spines, accessLink, fabricLink)
}

// tick is a self-rescheduling action: the scheduler's unit of work.
type tick struct {
	s      *sim.Simulator
	period time.Duration
}

func (t *tick) RunAction() { t.s.AtAction(t.s.Now().Add(t.period), t) }

// driveSim measures AtAction + deliver alone: `pending` self-rescheduling
// actions with a mean period of `period`, so that both the pending population
// and the event density in simulated time (events per timing-wheel slot)
// match the world being explained. Like the stack, which schedules at a
// handful of fixed delays (serialization, propagation, NIC pipeline, ACK
// coalescing), the actions use four distinct periods, so a wheel slot fills
// as a few sorted runs rather than in random order. Returns host ns per event.
func driveSim(pending int, period time.Duration) float64 {
	events := scaled(2_000_000)
	s := sim.NewWithScheduler(1, sim.SchedulerWheel)
	rng := rand.New(rand.NewSource(1))
	ticks := make([]tick, pending)
	for i := range ticks {
		// Event rates 4/p, 2/p, 1/p and 4/(9p) per action of each class
		// average to 1.86/p; the 1.86 keeps the overall rate at pending/period.
		class := [4]float64{0.25, 0.5, 1, 2.25}[i%4] * 1.86
		ticks[i] = tick{s: s, period: max(1, time.Duration(class*float64(period)))}
		s.AtAction(sim.Time(rng.Int63n(int64(period))), &ticks[i])
	}
	s.RunFor(2 * period)
	n0, t0 := s.Processed(), time.Now()
	for s.Processed()-n0 < events {
		s.RunFor(period)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(s.Processed()-n0)
}

// schedCost is driveSim (the median of three runs: at a few MB its working
// set sits on the edge of the L2 cache and single runs scatter) for a world
// that kept `pending` events queued and delivered `events` of them in
// `elapsed` simulated time.
func schedCost(pending int, events uint64, elapsed time.Duration) float64 {
	period := float64(elapsed.Nanoseconds()) * float64(pending) / float64(max(events, 1))
	var runs [3]float64
	for i := range runs {
		runs[i] = driveSim(max(pending, 1), time.Duration(max(period, 1)))
	}
	return median(runs[:])
}

type noopAction struct{}

func (*noopAction) RunAction() {}

var noop noopAction

// nsPer times fn(k) for k in [0, n) and returns host ns per call.
func nsPer(n int, fn func(k int)) float64 {
	t0 := time.Now()
	for k := 0; k < n; k++ {
		fn(k)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// bounce is a sink handler that answers every frame with one of the same
// size back to its sender, keeping a fixed number of frames in flight.
type bounce struct{ h *netsim.Host }

func (b bounce) HandleFrame(f *netsim.Frame) {
	r := b.h.NewFrame()
	r.Dst, r.FlowHash, r.Size = f.Src, f.FlowHash+1, f.Size
	b.h.Send(r)
}

// nullFrame schedules what one frame crossing the fabric schedules — a drain
// event at the end of serialization and a delivery one propagation delay
// later, hop after hop — and does nothing else.
type nullFrame struct {
	s    *sim.Simulator
	path []netsim.LinkConfig
	size int
	hops *uint64
}

func (f *nullFrame) RunAction() {
	l := f.path[*f.hops%uint64(len(f.path))]
	*f.hops++
	departure := f.s.Now().Add(time.Duration(float64(f.size) * 8 / l.GbpsRate))
	f.s.AtAction(departure, &noop)
	f.s.AtAction(departure.Add(l.PropDelay), f)
}

// driveNetsim bounces frames between the workload's host pairs through the
// same topology to sink handlers, then replays the same event pattern with
// nullFrames, and returns the difference: host ns per port hop spent in
// netsim and routing code.
func driveNetsim(p population) float64 {
	hopsWanted := scaled(1_500_000)
	size := p.segment + wire.HeaderLen()
	// Each pair keeps as many frames in flight as a connection keeps
	// transactions, but the busiest node's port must be able to queue all of
	// its pairs' frames (a dropped frame would not bounce back): beyond that,
	// only every stride-th pair takes part.
	budget := netsim.DefaultQueueBytes / size / 2
	stride := (p.connsPerNode + budget - 1) / budget
	inFlight := max(1, min(p.inflight, budget*stride/p.connsPerNode))
	var pairs [][2]int
	for i := 0; i < len(p.pairs); i += stride {
		pairs = append(pairs, p.pairs[i])
	}
	s := sim.NewWithScheduler(1, sim.SchedulerWheel)
	topo := p.shape.build(s)
	for _, h := range topo.Hosts {
		h.SetHandler(bounce{h})
	}
	for i, pr := range pairs {
		for k := 0; k < inFlight; k++ {
			f := topo.Hosts[pr[0]].NewFrame()
			f.Dst, f.FlowHash, f.Size = topo.Hosts[pr[1]].ID, uint64(i*inFlight+k)<<20, size
			topo.Hosts[pr[0]].Send(f)
		}
	}
	hops := func() (n uint64) {
		for _, pt := range topo.Net.Ports() {
			n += pt.Stats.TxFrames
		}
		return n
	}
	perHop := func(s *sim.Simulator, hops func() uint64) float64 {
		s.RunFor(50 * time.Microsecond)
		h0, t0 := hops(), time.Now()
		for hops()-h0 < hopsWanted && time.Since(t0) < driverBudget {
			s.RunFor(20 * time.Microsecond)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(hops()-h0)
	}
	real := perHop(s, hops)

	path := []netsim.LinkConfig{accessLink, accessLink}
	if p.shape.racks > 0 {
		path = []netsim.LinkConfig{accessLink, fabricLink, fabricLink, accessLink}
	}
	ns := sim.NewWithScheduler(1, sim.SchedulerWheel)
	var nullHops uint64
	frames := make([]nullFrame, len(pairs)*inFlight)
	for i := range frames {
		frames[i] = nullFrame{s: ns, path: path, size: size, hops: &nullHops}
		ns.AtAction(sim.Time(i), &frames[i])
	}
	null := perHop(ns, func() uint64 { return nullHops })
	return max(real-null, 0)
}

// driveNIC measures nic.ProcessAction (pipeline admission and connection
// cache lookup) across the node's connection population: the cost of a batch
// of ProcessAction calls minus that of AtAction calls at the same instants.
func driveNIC(p population) float64 {
	const batch = 1 << 15
	batches := int(max(scaled(32), 1))
	s := sim.NewWithScheduler(1, sim.SchedulerWheel)
	n := nic.New(s, p.nicCfg)
	conns := max(p.connsPerNode, 1)
	var admit, null float64
	for b := 0; b < batches; b++ {
		t0 := s.Now()
		admit += nsPer(batch, func(k int) { n.ProcessAction(uint32(1+k%conns), &noop) })
		s.Run()
		gap, t1 := s.Now().Sub(t0)/batch, s.Now()
		null += nsPer(batch, func(k int) { s.AtAction(t1.Add(gap*time.Duration(k)), &noop) })
		s.Run()
	}
	return max(admit-null, 0) / float64(batches)
}

// pdlEnd is one side of a looped-back PDL connection pair.
type pdlEnd struct {
	d    *pdlDriver
	conn *pdl.Conn
	peer *pdlEnd
	rsn  uint64
}

type pdlDriver struct {
	s       *sim.Simulator
	pool    *wire.PacketPool
	rng     *rand.Rand
	loss    float64
	latency time.Duration
	segment uint32
	free    *pdlDelivery
}

// pdlDelivery carries one snapshotted packet to the peer's HandlePacket.
type pdlDelivery struct {
	to   *pdlEnd
	pkt  *wire.Packet
	next *pdlDelivery
}

func (e *pdlDelivery) RunAction() {
	to, pkt := e.to, e.pkt
	d := to.d
	e.to, e.pkt, e.next = nil, nil, d.free
	d.free = e
	to.conn.HandlePacket(pkt, 2)
	d.pool.Release(pkt)
}

func (e *pdlEnd) send(p *wire.Packet) {
	d := e.d
	if d.loss > 0 && d.rng.Float64() < d.loss {
		return
	}
	cp := d.pool.Acquire()
	cp.CopyFrom(p)
	ev := d.free
	if ev == nil {
		ev = &pdlDelivery{}
	} else {
		d.free = ev.next
	}
	ev.to, ev.pkt = e.peer, cp
	d.s.AtAction(d.s.Now().Add(d.latency), ev)
}

func (e *pdlEnd) push() {
	p := e.d.pool.Acquire()
	p.Type, p.RSN, p.Length = wire.TypePushData, e.rsn, e.d.segment
	e.rsn++
	e.conn.SendPacket(p)
}

// drivePDL loops pairs of pdl.Conn back to back through Callbacks.Send ->
// HandlePacket, with the workload's path loss, each sender kept `inflight`
// packets deep, and returns host ns per data packet (both ends, ACKs and
// recovery included, the scheduler's cost for the same events subtracted).
func drivePDL(p population) float64 {
	packets := scaled(600_000)
	s := sim.NewWithScheduler(1, sim.SchedulerWheel)
	d := &pdlDriver{
		s: s, pool: wire.NewPacketPool(), rng: rand.New(rand.NewSource(1)),
		loss: p.pathLoss, latency: 3 * time.Microsecond, segment: uint32(p.segment),
	}
	newEnd := func(id uint32, onAck func()) *pdlEnd {
		e := &pdlEnd{d: d}
		e.conn = pdl.NewConn(s, id, pdl.DefaultConfig(), pdl.Callbacks{
			Send:        e.send,
			Deliver:     func(*wire.Packet) pdl.DeliverVerdict { return pdl.DeliverVerdict{} },
			PacketAcked: func(wire.Space, uint32, uint64, wire.Type) { onAck() },
		})
		e.conn.SetPacketPool(d.pool)
		return e
	}
	var senders []*pdlEnd
	for i := 0; i < min(p.conns, 1024); i++ {
		var a *pdlEnd
		a = newEnd(uint32(i+1), func() { a.push() })
		b := newEnd(uint32(i+1), func() {})
		a.peer, b.peer = b, a
		senders = append(senders, a)
	}
	for _, a := range senders {
		for k := 0; k < p.inflight; k++ {
			a.push()
		}
	}
	s.RunFor(100 * time.Microsecond)
	dataSent := func() (n uint64) {
		for _, a := range senders {
			n += a.conn.Stats.DataSent + a.conn.Stats.DataRetransmits
		}
		return n
	}
	n0, e0, at0, t0 := dataSent(), s.Processed(), s.Now(), time.Now()
	pending := 0
	for dataSent()-n0 < packets && time.Since(t0) < driverBudget {
		s.RunFor(50 * time.Microsecond)
		pending = max(pending, s.Pending())
	}
	wall, events := float64(time.Since(t0).Nanoseconds()), s.Processed()-e0
	ns := wall - float64(events)*schedCost(pending, events, s.Now().Sub(at0))
	return max(ns, 0) / float64(dataSent()-n0)
}

// tlDriver joins pairs of tl.Conn through loop-back Controls.
type tlDriver struct {
	pool  *wire.PacketPool
	ready []*tlPipe // pipes with queued packets, in send order
}

// tlPipe is the tl.Control of one TL connection in the TL driver: it queues
// what the connection sends until the driver carries it to the peer.
type tlPipe struct {
	d          *tlDriver
	self, peer *tl.Conn
	psn        [wire.NumSpaces]uint32
	queue      []*wire.Packet
}

func (p *tlPipe) SendPacket(pk *wire.Packet) {
	pk.Space = wire.SpaceOf(pk.Type)
	pk.PSN = p.psn[pk.Space]
	p.psn[pk.Space]++
	if len(p.queue) == 0 {
		p.d.ready = append(p.d.ready, p)
	}
	p.queue = append(p.queue, pk)
}

func (p *tlPipe) SendExceptionNack(wire.Space, uint32, uint64, wire.NackCode, time.Duration) {}

// carry delivers every queued packet to its peer TL and acknowledges it to
// the sender, as the PDL would, until nothing is queued anywhere.
func (d *tlDriver) carry() {
	for len(d.ready) > 0 {
		p := d.ready[0]
		d.ready = d.ready[1:]
		queue := p.queue
		p.queue = nil
		for _, pk := range queue {
			space, psn, rsn, typ := pk.Space, pk.PSN, pk.RSN, pk.Type
			if v := p.peer.Deliver(pk); v.Kind == pdl.DeliverNoResources {
				p.SendPacket(pk) // the real PDL would be NACKed and retransmit
				continue
			}
			d.pool.Release(pk)
			p.self.PacketAcked(space, psn, rsn, typ)
			if space == wire.SpaceRequest {
				p.self.Completed(p.peer.CompletedRSN())
			}
		}
	}
}

type sinkTarget struct{}

func (sinkTarget) HandlePush(uint64, *wire.Packet) tl.TargetVerdict { return tl.TargetVerdict{} }
func (sinkTarget) HandlePull(_ uint64, p *wire.Packet) ([]byte, uint32, tl.TargetVerdict) {
	return nil, p.PullLength, tl.TargetVerdict{}
}

// driveTL runs Push/Pull transactions through pairs of tl.Conn joined by a
// loop-back Control. As many targets as the busiest node of the workload
// terminates share one tl.Resources, their initiators share one per
// initPerNode, each connection is kept `inflight` deep, and refused
// initiations are repeated until there are refusalsPerTxn of them per
// transaction, as in the traced window. Returns host ns per transaction.
func driveTL(p population, refusalsPerTxn float64) float64 {
	txns := scaled(300_000)
	s := sim.NewWithScheduler(1, sim.SchedulerWheel)
	d := &tlDriver{pool: wire.NewPacketPool()}
	resT := tl.NewResources(tl.DefaultResourceConfig())
	var resI *tl.Resources
	var done, refused uint64
	onDone := func([]byte, error) { done++ }
	inits := make([]*tl.Conn, max(p.targetPerNode, 1))
	for i := range inits {
		if i%max(p.initPerNode, 1) == 0 {
			resI = tl.NewResources(tl.DefaultResourceConfig())
		}
		pi, pt := &tlPipe{d: d}, &tlPipe{d: d}
		ci := tl.NewConn(s, uint32(i+1), tl.DefaultConfig(), resI, pi, nil)
		ct := tl.NewConn(s, uint32(i+1), tl.DefaultConfig(), resT, pt, sinkTarget{})
		ci.SetPacketPool(d.pool)
		ct.SetPacketPool(d.pool)
		pi.self, pi.peer, pt.self, pt.peer = ci, ct, ct, ci
		inits[i] = ci
	}
	initiate := func(k int) bool {
		var err error
		if p.pull || (p.mixed && k%2 == 0) {
			_, err = inits[k].Pull(uint32(p.segment), onDone)
		} else {
			_, err = inits[k].Push(nil, uint32(p.segment), onDone)
		}
		if err != nil {
			refused++
		}
		return err == nil
	}
	round := func() {
		for k, c := range inits {
			for c.OutstandingTxns() < p.inflight && initiate(k) {
			}
		}
		for k := 0; float64(refused) < refusalsPerTxn*float64(done) && k < len(inits); k++ {
			initiate(k)
		}
		d.carry()
	}
	for i := 0; i < 3; i++ {
		round()
	}
	d0, t0 := done, time.Now()
	for done-d0 < txns && time.Since(t0) < driverBudget {
		round()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(done-d0)
}

// driveFAE measures Engine.Post of an ACK event across the node's connections.
func driveFAE(p population) float64 {
	events := int(scaled(2_000_000))
	s := sim.NewWithScheduler(1, sim.SchedulerWheel)
	e := fae.New(s, p.faeCfg, func(fae.Response) {})
	n := uint32(max(p.connsPerNode, 1))
	for c := uint32(1); c <= n; c++ {
		e.RegisterConn(c, wire.MaxFlows)
	}
	ev := fae.Event{Kind: fae.EventAck, FabricDelay: 6 * time.Microsecond, RTT: 12 * time.Microsecond, AckedPackets: 2, Hops: 3}
	post := func(k int) {
		for i := 0; i < k; i++ {
			ev.Conn, ev.Flow, ev.Now = 1+uint32(i)%n, i%wire.MaxFlows, sim.Time(i)*100
			e.Post(ev)
		}
	}
	post(events / 10)
	t0 := time.Now()
	post(events)
	return float64(time.Since(t0).Nanoseconds()) / float64(events)
}

// driveRDMAAllocs posts Reads and Writes of the workload's op size one at a
// time over a point-to-point Falcon connection and returns heap allocations
// per op for each verb.
func driveRDMAAllocs(p population) (perRead, perWrite float64) {
	ops := int(max(scaled(400), 20))
	s := sim.NewWithScheduler(1, sim.SchedulerWheel)
	topo, _ := netsim.PointToPoint(s, accessLink)
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
	qp := rdma.NewQP(epA, rdma.Config{})
	rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 40)
	done := func(rdma.Completion) {}
	run := func(read bool, n int) float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		for i := 0; i < n; i++ {
			if read {
				_ = qp.Read(0, 0, p.opBytes, done) // Read and Write always return nil
			} else {
				_ = qp.Write(0, 0, nil, p.opBytes, done)
			}
			s.Run()
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.Mallocs-m0) / float64(n)
	}
	run(true, ops/4)
	run(false, ops/4)
	return run(true, ops), run(false, ops)
}
