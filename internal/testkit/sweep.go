package testkit

import (
	"fmt"
	"strings"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/sim"
)

// Workload selects the transaction mix a sweep scenario drives.
type Workload int

const (
	// WorkloadPush issues only push transactions (RDMA-Write-like).
	WorkloadPush Workload = iota
	// WorkloadPull issues only pull transactions (RDMA-Read-like).
	WorkloadPull
	// WorkloadMixed alternates pushes and pulls.
	WorkloadMixed
)

func (w Workload) String() string {
	switch w {
	case WorkloadPull:
		return "pull"
	case WorkloadMixed:
		return "mixed"
	}
	return "push"
}

// Scenario is one cell of the fault-sweep matrix: a fixed-size workload
// driven over a two-node Falcon cluster under a combination of fabric and
// endpoint impairments, with the invariant checker and trace hasher
// attached everywhere.
type Scenario struct {
	Name string
	Seed int64

	// Workload shape. Zero values take the defaults noted.
	Workload Workload
	Ops      int // transactions to issue (default 200)
	OpBytes  int // payload / solicited bytes per op (default 4096)
	Window   int // closed-loop issue window (default 16)

	// Connection shape.
	Unordered bool
	NumFlows  int // multipath flows (default 4)

	// Fabric impairments (forward direction: initiator -> target).
	DropPct       float64       // random drop percentage
	ReorderPct    float64       // random reorder percentage
	ReorderDelay  time.Duration // hold time for reordered frames
	Bidirectional bool          // also impair the reverse (ACK) direction
	DegradeGbps   float64       // if > 0, forward link degrades to this rate mid-run

	// Endpoint impairments.
	RNRPct     float64       // target answers RNR with this probability
	RNRDelay   time.Duration // RNR retry hint (default 20us)
	TinyRxPool bool          // shrink the target's RxReq pool (resource-NACK pressure)

	// Link shape.
	Gbps      float64       // default 100
	PropDelay time.Duration // default 1us

	// MaxSimTime bounds the run in simulated time (default 5s). A healthy
	// scenario drains in well under a millisecond of simulated time per
	// op; hitting this bound means the protocol livelocked, and the
	// harness fails the run with a full state dump rather than spinning.
	MaxSimTime time.Duration

	// Harness self-test knobs (see Checker.StrictOutstanding). FailFunc,
	// when non-nil, replaces the checker's default panic so expected
	// violations can be recorded instead.
	StrictOutstanding int
	FailFunc          func(format string, args ...any)
}

// withDefaults fills zero fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.Ops == 0 {
		sc.Ops = 200
	}
	if sc.OpBytes == 0 {
		sc.OpBytes = 4096
	}
	if sc.Window == 0 {
		sc.Window = 16
	}
	if sc.NumFlows == 0 {
		sc.NumFlows = 4
	}
	if sc.RNRDelay == 0 {
		sc.RNRDelay = 20 * time.Microsecond
	}
	if sc.Gbps == 0 {
		sc.Gbps = 100
	}
	if sc.MaxSimTime == 0 {
		sc.MaxSimTime = 5 * time.Second
	}
	if sc.PropDelay == 0 {
		sc.PropDelay = time.Microsecond
	}
	return sc
}

// Result summarizes one scenario run.
type Result struct {
	// TraceHash fingerprints the entire run (see TraceHasher); Records is
	// the number of trace records folded into it. ProtoHash/ProtoRecords
	// cover protocol records only (no scheduler events).
	TraceHash    uint64
	Records      uint64
	ProtoHash    uint64
	ProtoRecords uint64

	Issued    int
	Completed int
	Errored   int
	Served    int // distinct RSNs terminally processed at the target

	// ConnFailed reports the PDL declared the connection dead (RTO budget
	// exhausted) — only expected under impairments harsher than the
	// matrix uses.
	ConnFailed bool

	SimTime     sim.Time
	Retransmits uint64
	RTOs        uint64
	Duplicates  uint64
	NacksRx     uint64
	RNRRetries  uint64
	Checks      uint64
	Violations  uint64 // non-zero only when FailFunc suppresses the panic

	// Events counts the scheduler deliveries the checkers order- and
	// timer-checked.
	Events uint64
	// PacketsAllocated and PacketsFree read the cluster's transport packet
	// pool after the run, FramesAllocated and FramesFree the network's
	// frame pool; a drained run has each pair equal.
	PacketsAllocated int
	PacketsFree      int
	FramesAllocated  int
	FramesFree       int
}

// probeSet is the run's verification harness: one observer attached to
// the scheduler, the hosts' NIC ingress taps and both endpoints' PDL and
// TL probes. Each hook lands in the flight ring first, then in the
// invariant checker (which has no frame tap), then in the trace hasher.
type probeSet struct {
	s    *sim.Simulator
	h    *TraceHasher
	k    *Checker
	ring flightRing
}

// newProbeSet builds the harness and observes s's events. Every checker
// failure carries the flight ring's dump, so a violation shows the event
// history leading up to it instead of only the failing assertion.
func newProbeSet(s *sim.Simulator, sc Scenario) *probeSet {
	ps := &probeSet{s: s, h: NewTraceHasher(), k: NewChecker()}
	ps.k.StrictOutstanding = sc.StrictOutstanding
	ps.k.FailFunc = func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...) + "\n" + ps.ring.String()
		if sc.FailFunc != nil {
			sc.FailFunc("%s", msg)
			return
		}
		panic("testkit: invariant violation: " + msg)
	}
	s.SetObserver(ps)
	return ps
}

// OnEvent feeds every delivered event to the trace hasher, then to the
// checker.
func (ps *probeSet) OnEvent(at sim.Time, seq uint64) {
	ps.h.OnEvent(at, seq)
	ps.k.OnEvent(at, seq)
}

// OnSend implements pdl.Probe.
func (ps *probeSet) OnSend(c *pdl.Conn, p *wire.Packet, retransmit bool) {
	var aux uint64
	if retransmit {
		aux = 1
	}
	ps.ring.add(flightRecord{at: ps.s.Now(), tag: tagSend, typ: uint8(p.Type),
		conn: c.ID(), psn: p.PSN, rsn: p.RSN, aux: aux})
	ps.k.OnSend(c, p, retransmit)
	ps.h.OnSend(c, p, retransmit)
}

// OnReceive implements pdl.Probe.
func (ps *probeSet) OnReceive(c *pdl.Conn, p *wire.Packet) {
	ps.ring.add(flightRecord{at: ps.s.Now(), tag: tagReceive, typ: uint8(p.Type),
		conn: c.ID(), psn: p.PSN, rsn: p.RSN})
	ps.k.OnReceive(c, p)
	ps.h.OnReceive(c, p)
}

// OnRequestServed implements tl.Probe.
func (ps *probeSet) OnRequestServed(c *tl.Conn, rsn uint64) {
	ps.ring.add(flightRecord{at: ps.s.Now(), tag: tagServe, conn: c.ID(), rsn: rsn})
	ps.k.OnRequestServed(c, rsn)
	ps.h.OnRequestServed(c, rsn)
}

// OnCompletion implements tl.Probe.
func (ps *probeSet) OnCompletion(c *tl.Conn, rsn uint64, err error) {
	var aux uint64
	if err != nil {
		aux = 1
	}
	ps.ring.add(flightRecord{at: ps.s.Now(), tag: tagCompletion, conn: c.ID(), rsn: rsn, aux: aux})
	ps.k.OnCompletion(c, rsn, err)
	ps.h.OnCompletion(c, rsn, err)
}

// TapFrame is the hosts' netsim tap: a frame arriving at NIC ingress.
func (ps *probeSet) TapFrame(f *netsim.Frame) {
	rec := flightRecord{at: ps.s.Now(), tag: tagFrame, aux: uint64(f.Size)}
	if p, ok := f.Payload.(*wire.Packet); ok {
		rec.typ, rec.conn, rec.psn, rec.rsn = uint8(p.Type), p.ConnID, p.PSN, p.RSN
	}
	ps.ring.add(rec)
	ps.h.TapFrame(f)
}

// watch attaches the harness to an endpoint.
func (ps *probeSet) watch(ep *core.Endpoint) {
	ep.PDL().SetProbe(ps)
	ep.TL().SetProbe(ps)
	ps.k.WatchTimers(ep.PDL())
}

// flightDepth is how many records the flight ring keeps.
const flightDepth = 64

// flightRecord is one flight-ring entry: a fixed-width, pointer-free copy
// of a probe hook's arguments, so the ring is overwritten for the whole
// run without allocating or retaining packets.
type flightRecord struct {
	at   sim.Time
	tag  byte // the hook's TraceHasher record tag
	typ  uint8
	conn uint32
	psn  uint32
	rsn  uint64
	aux  uint64 // 1 on a retransmit or an errored completion; frame size on 'F'
}

// flightRing is the harness's flight recorder: the last flightDepth probe
// records of a run. It schedules no events and draws no randomness, so it
// leaves the trace hash unchanged, and it is read only when the checker
// fails.
type flightRing struct {
	recs  [flightDepth]flightRecord
	total uint64 // records ever written; recs[total%flightDepth] is next
}

func (r *flightRing) add(rec flightRecord) {
	r.recs[r.total%flightDepth] = rec
	r.total++
}

// String renders the retained records oldest-first, one per line.
func (r *flightRing) String() string {
	n := min(r.total, flightDepth)
	if n == 0 {
		return "flight recorder: empty\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder (last %d of %d records):\n", n, r.total)
	for i := r.total - n; i < r.total; i++ {
		rec := &r.recs[i%flightDepth]
		fmt.Fprintf(&b, "  t=%-14v %c conn=%-3d type=%-2d psn=%-8d rsn=%-6d aux=%d\n",
			rec.at, rec.tag, rec.conn, rec.typ, rec.psn, rec.rsn, rec.aux)
	}
	return b.String()
}

// sweepTarget is the target-side ULP: it serves every request, answering
// RNR with the configured probability (drawn from the simulation RNG so
// runs stay deterministic).
type sweepTarget struct {
	s        *sim.Simulator
	rnrProb  float64
	rnrDelay time.Duration
}

func (t *sweepTarget) verdict() tl.TargetVerdict {
	if t.rnrProb > 0 && t.s.Rand().Float64() < t.rnrProb {
		return tl.TargetVerdict{Kind: tl.TargetRNR, RetryDelay: t.rnrDelay}
	}
	return tl.TargetVerdict{Kind: tl.TargetOK}
}

func (t *sweepTarget) HandlePush(rsn uint64, p *wire.Packet) tl.TargetVerdict {
	return t.verdict()
}

func (t *sweepTarget) HandlePull(rsn uint64, p *wire.Packet) ([]byte, uint32, tl.TargetVerdict) {
	v := t.verdict()
	if v.Kind != tl.TargetOK {
		return nil, 0, v
	}
	return nil, p.PullLength, v
}

// Run executes one scenario with the full verification harness attached:
// the trace hasher observes the scheduler, the hosts' NIC ingress taps and
// both endpoints' PDL connections and TLs; the invariant checker rides the
// same probes and panics (with a context dump) on any violation. After the
// run, Run additionally asserts quiescence: no outstanding or queued
// packets, every resource pool drained back to zero, and every transport
// packet and fabric frame back on its free list.
func Run(sc Scenario) Result {
	sc = sc.withDefaults()
	s := sim.New(sc.Seed)
	link := netsim.LinkConfig{GbpsRate: sc.Gbps, PropDelay: sc.PropDelay}
	topo, fwd := netsim.PointToPoint(s, link)
	rev := topo.ToRs[0].RouteTo(topo.Hosts[0].ID)[0]

	cl := core.NewCluster(s)
	cfgA := core.DefaultNodeConfig()
	cfgB := core.DefaultNodeConfig()
	if sc.TinyRxPool {
		// Starve the target's RxReq pool so arriving requests draw
		// resource NACKs and HoL-only admission under load.
		cfgB.Resources.Pools[tl.PoolRxReq] = tl.PoolConfig{Contexts: 8, Bytes: 8 * sc.OpBytes}
	}
	a := cl.AddNode(topo.Hosts[0], cfgA)
	b := cl.AddNode(topo.Hosts[1], cfgB)

	connCfg := core.DefaultConnConfig()
	connCfg.PDL.NumFlows = sc.NumFlows
	connCfg.TL.Ordered = !sc.Unordered
	epA, epB := cl.Connect(a, b, connCfg)

	ps := newProbeSet(s, sc)
	for _, h := range topo.Hosts {
		h.SetTap(ps.TapFrame)
	}
	ps.watch(epA)
	ps.watch(epB)
	epB.SetTarget(&sweepTarget{s: s, rnrProb: sc.RNRPct / 100, rnrDelay: sc.RNRDelay})

	// Fabric impairments.
	fwd.SetDropProb(sc.DropPct / 100)
	if sc.ReorderPct > 0 {
		delay := sc.ReorderDelay
		if delay == 0 {
			delay = 20 * time.Microsecond
		}
		fwd.SetReorder(sc.ReorderPct/100, delay)
	}
	if sc.Bidirectional {
		rev.SetDropProb(sc.DropPct / 100)
		if sc.ReorderPct > 0 {
			delay := sc.ReorderDelay
			if delay == 0 {
				delay = 20 * time.Microsecond
			}
			rev.SetReorder(sc.ReorderPct/100, delay)
		}
	}
	if sc.DegradeGbps > 0 {
		s.After(150*time.Microsecond, func() { fwd.SetRateGbps(sc.DegradeGbps) })
	}

	// Closed-loop workload whose refused issue is parked in the TL and
	// resumes only on its Xon edge, so the livelock check below is also
	// the Xon liveness oracle. A completion pumps directly unless the issue
	// is already parked.
	res := Result{}
	inFlight := 0
	var pump func()
	done := func(_ []byte, err error) {
		inFlight--
		res.Completed++
		if err != nil {
			res.Errored++
		}
		pump()
	}
	issue := func() bool {
		if epA.TL().Dead() != nil {
			return true
		}
		for inFlight < sc.Window && res.Issued < sc.Ops {
			var err error
			pull := sc.Workload == WorkloadPull ||
				(sc.Workload == WorkloadMixed && res.Issued%2 == 1)
			if pull {
				_, err = epA.Pull(uint32(sc.OpBytes), done)
			} else {
				_, err = epA.Push(nil, uint32(sc.OpBytes), done)
			}
			if err != nil {
				return false // backpressured (Xoff or pool pressure): parked
			}
			inFlight++
			res.Issued++
		}
		return true
	}
	pump = func() {
		if epA.TL().Parked() == 0 {
			epA.TL().Submit(tl.WorkFunc(issue))
		}
	}
	pump()
	s.RunUntil(s.Now().Add(sc.MaxSimTime))
	if (res.Completed < res.Issued || res.Issued < sc.Ops) &&
		epA.TL().Dead() == nil && epB.TL().Dead() == nil {
		ps.k.Failf("scenario %q livelocked: no drain after %v simulated (issued=%d completed=%d)\n"+
			"initiator: %s\n  tl pending=%v\ntarget: %s\n  tl expected=%d buffered=%v",
			sc.Name, sc.MaxSimTime, res.Issued, res.Completed,
			DumpConn(epA.PDL()), epA.TL().PendingRSNs(),
			DumpConn(epB.PDL()), epB.TL().CompletedRSN(), epB.TL().BufferedRSNs())
	}

	res.TraceHash, res.ProtoHash = ps.h.Sum64(), ps.h.ProtoSum64()
	res.Records = ps.h.Records()
	res.ProtoRecords = ps.h.ProtoRecords()
	res.Checks = ps.k.Checks
	res.Events = ps.k.Events
	res.Served = ps.k.ServedCount(epB.TL())
	res.ConnFailed = epA.TL().Dead() != nil || epB.TL().Dead() != nil
	res.SimTime = s.Now()
	st := epA.PDL().Stats
	res.Retransmits = st.DataRetransmits + epB.PDL().Stats.DataRetransmits
	res.RTOs = st.RTOs + epB.PDL().Stats.RTOs
	res.Duplicates = epB.PDL().Stats.Duplicates + st.Duplicates
	res.NacksRx = st.NacksReceived
	res.RNRRetries = epA.TL().Stats.RNRRetries
	pool := a.PacketPool()
	res.PacketsAllocated, res.PacketsFree = pool.Allocated(), pool.Free()
	frames := topo.Net.Frames()
	res.FramesAllocated, res.FramesFree = frames.Allocated(), frames.Free()

	// Post-run quiescence: every reservation was returned, and every
	// transport packet, fabric frame and pooled per-op object
	// (core.Cluster.FreeLists, one list per type for both nodes) is back
	// on its free list, whether or not a connection failed. A live
	// connection also completed everything it issued and holds nothing
	// outstanding or queued.
	sides := []struct {
		name string
		ep   *core.Endpoint
		node *core.Node
	}{{"initiator", epA, a}, {"target", epB, b}}
	for _, sd := range sides {
		if !res.ConnFailed {
			if out := sd.ep.PDL().Outstanding(); out != 0 {
				ps.k.Failf("scenario %q: %d packets still outstanding after drain\n%s",
					sc.Name, out, DumpConn(sd.ep.PDL()))
			}
			if q := sd.ep.PDL().QueuedPackets(); q != 0 {
				ps.k.Failf("scenario %q: %d packets still queued after drain\n%s",
					sc.Name, q, DumpConn(sd.ep.PDL()))
			}
		}
		for _, pool := range []tl.PoolKind{tl.PoolTxReq, tl.PoolTxResp, tl.PoolRxReq, tl.PoolRxResp} {
			if occ := sd.node.Resources().Occupancy(pool); occ != 0 {
				ps.k.Failf("scenario %q: %s %v pool not drained (occupancy %.4f) — resource leak",
					sc.Name, sd.name, pool, occ)
			}
		}
	}
	if !res.ConnFailed && res.Completed != res.Issued {
		ps.k.Failf("scenario %q: %d issued but %d completed\n%s",
			sc.Name, res.Issued, res.Completed, DumpConn(epA.PDL()))
	}
	cl.FreeLists(func(list string, built, free int) {
		if free != built {
			ps.k.Failf("scenario %q: the cluster built %d %s but %d are free after drain — leak or double put",
				sc.Name, built, list, free)
		}
	})
	if res.PacketsFree != res.PacketsAllocated {
		ps.k.Failf("scenario %q: %d transport packets allocated but %d free after drain — packet leak or double release",
			sc.Name, res.PacketsAllocated, res.PacketsFree)
	}
	if res.FramesFree != res.FramesAllocated {
		ps.k.Failf("scenario %q: %d fabric frames allocated but %d free after drain — frame leak or double release",
			sc.Name, res.FramesAllocated, res.FramesFree)
	}
	res.Violations = ps.k.Violations
	return res
}

// Matrix returns the full fault-sweep matrix: every workload crossed with
// every fault mode the paper's evaluation exercises (loss, reordering,
// link degrade, RNR pressure, resource exhaustion), plus unordered and
// kitchen-sink combinations.
func Matrix() []Scenario {
	type fault struct {
		name  string
		apply func(*Scenario)
	}
	faults := []fault{
		{"clean", func(*Scenario) {}},
		{"drop1", func(sc *Scenario) { sc.DropPct = 1 }},
		{"drop5", func(sc *Scenario) { sc.DropPct = 5 }},
		{"drop20", func(sc *Scenario) { sc.DropPct = 20 }},
		{"reorder", func(sc *Scenario) { sc.ReorderPct = 10; sc.ReorderDelay = 20 * time.Microsecond }},
		{"drop+reorder-bidir", func(sc *Scenario) {
			sc.DropPct = 2
			sc.ReorderPct = 10
			sc.ReorderDelay = 10 * time.Microsecond
			sc.Bidirectional = true
		}},
		{"degrade", func(sc *Scenario) { sc.DegradeGbps = 10 }},
		{"rnr", func(sc *Scenario) { sc.RNRPct = 10 }},
		{"tinyrx", func(sc *Scenario) { sc.TinyRxPool = true }},
		{"sink", func(sc *Scenario) {
			sc.DropPct = 5
			sc.ReorderPct = 5
			sc.ReorderDelay = 15 * time.Microsecond
			sc.RNRPct = 5
			sc.TinyRxPool = true
		}},
	}
	var out []Scenario
	seed := int64(1)
	for _, w := range []Workload{WorkloadPush, WorkloadPull, WorkloadMixed} {
		for _, f := range faults {
			sc := Scenario{
				Name:     fmt.Sprintf("%v/%s", w, f.name),
				Seed:     seed,
				Workload: w,
			}
			f.apply(&sc)
			out = append(out, sc)
			seed++
		}
	}
	// Unordered connections cover the unordered completion path under the
	// harshest faults.
	for _, f := range []string{"clean", "drop5", "sink"} {
		for _, base := range faults {
			if base.name != f {
				continue
			}
			sc := Scenario{
				Name:      fmt.Sprintf("unordered/%s", f),
				Seed:      seed,
				Workload:  WorkloadMixed,
				Unordered: true,
			}
			base.apply(&sc)
			out = append(out, sc)
			seed++
		}
	}
	return out
}
