package testkit

import (
	"fmt"
	"time"

	"falcon/internal/core"
	"falcon/internal/falcon/pdl"
	"falcon/internal/falcon/tl"
	"falcon/internal/falcon/wire"
	"falcon/internal/netsim"
	"falcon/internal/sim"
	"falcon/internal/telemetry"
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

	// Shards splits the run into that many concurrent simulation
	// partitions (<= 1 is the single event loop). Partitioned runs are
	// self-deterministic — same seed, shard count and topology give the
	// same per-partition streams — but their sequence numbering is
	// per-partition, so their hashes are not comparable to the single
	// loop's (the golden pins them under "<scenario>@shards4").
	Shards int

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

	// DisableRecorder detaches the telemetry flight recorder that Run
	// normally shadows on every probe. It exists for the determinism
	// suite, which asserts that attaching the recorder leaves the trace
	// hash byte-identical (the recorder schedules no events and draws no
	// randomness).
	DisableRecorder bool
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
	// PacketsAllocated and PacketsFree sum the transport packet pools
	// after the run; a drained single-loop run has them equal.
	PacketsAllocated int
	PacketsFree      int
}

// probeSet is one partition's verification harness: a trace hasher, an
// invariant checker and a flight recorder, attached to the partition's
// scheduler, hosts and endpoints. Only the partition's own goroutine
// touches it.
type probeSet struct {
	h   *TraceHasher
	k   *Checker
	rec *telemetry.Recorder // nil under DisableRecorder
}

// newProbeSet builds the harness for partition s and observes its events.
// The flight recorder is a passive ring of the most recent probe records:
// it schedules no events and draws no randomness, so attaching it leaves
// the trace hash unchanged; its payoff is at failure time, when any
// invariant violation dumps the event history leading up to it instead of
// only the failing assertion.
func newProbeSet(s *sim.Simulator, sc Scenario) *probeSet {
	ps := &probeSet{h: NewTraceHasher(), k: NewChecker()}
	ps.k.StrictOutstanding = sc.StrictOutstanding
	ps.k.FailFunc = sc.FailFunc
	if !sc.DisableRecorder {
		ps.rec = telemetry.NewRecorder(s, telemetry.DefaultRecorderDepth)
		inner := sc.FailFunc
		ps.k.FailFunc = func(format string, args ...any) {
			msg := fmt.Sprintf(format, args...) + "\n" + ps.rec.DumpString()
			if inner != nil {
				inner("%s", msg)
				return
			}
			panic("testkit: invariant violation: " + msg)
		}
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

// tapFrame records a frame arriving at one of the partition's hosts.
func (ps *probeSet) tapFrame(f *netsim.Frame) {
	ps.h.TapFrame(f)
	if ps.rec != nil {
		ps.rec.TapFrame(f)
	}
}

// watch attaches the harness to an endpoint of its partition.
func (ps *probeSet) watch(ep *core.Endpoint) {
	var pdlExtra pdl.Probe
	var tlExtra tl.Probe
	if ps.rec != nil {
		pdlExtra, tlExtra = ps.rec, ps.rec
	}
	ep.PDL().SetProbe(pdl.MultiProbe(ps.k, ps.h, pdlExtra))
	ep.TL().SetProbe(tl.MultiProbe(ps.k, ps.h, tlExtra))
	ps.k.WatchTimers(ep.PDL())
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

// Run executes one scenario with the full verification harness attached
// to every partition (the single loop is the one-partition case): the
// partition's trace hasher observes its scheduler, its hosts' NIC ingress
// taps and the PDL connections and TLs of its endpoints; its invariant
// checker rides the same probes and panics (with a context dump) on any
// violation. After the run, Run additionally asserts quiescence: no
// outstanding or queued packets and every resource pool drained back to
// zero.
func Run(sc Scenario) Result {
	sc = sc.withDefaults()
	s := sim.NewSharded(sc.Seed, sc.Shards)
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

	sets := []*probeSet{newProbeSet(s, sc)}
	if g := s.Group(); g != nil {
		for i := 1; i < g.Shards(); i++ {
			sets = append(sets, newProbeSet(g.Part(i), sc))
		}
	}
	for _, h := range topo.Hosts {
		h.SetTap(sets[h.Sim().ShardIndex()].tapFrame)
	}
	psA := sets[epA.Sim().ShardIndex()]
	psB := sets[epB.Sim().ShardIndex()]
	psA.watch(epA)
	psB.watch(epB)

	// The target's RNR verdicts execute on the target's partition, so they
	// draw from its simulator's stream.
	epB.SetTarget(&sweepTarget{s: epB.Sim(), rnrProb: sc.RNRPct / 100, rnrDelay: sc.RNRDelay})

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
		// The degrade mutates port state, so its timer runs on the port's
		// partition.
		fwd.Sim().After(150*time.Microsecond, func() { fwd.SetRateGbps(sc.DegradeGbps) })
	}

	// Closed-loop workload with transparent retry on backpressure.
	res := Result{}
	inFlight := 0
	var pump func()
	retryArmed := false
	done := func(_ []byte, err error) {
		inFlight--
		res.Completed++
		if err != nil {
			res.Errored++
		}
		pump()
	}
	pump = func() {
		if epA.TL().Dead() != nil {
			return
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
				// Backpressured (Xoff or pool pressure): retry soon;
				// the Xon callback also re-pumps.
				if !retryArmed {
					retryArmed = true
					// The retry re-enters the initiator's TL, so it runs
					// on the initiator's partition.
					epA.Sim().After(20*time.Microsecond, func() {
						retryArmed = false
						pump()
					})
				}
				return
			}
			inFlight++
			res.Issued++
		}
	}
	epA.TL().SetXonCallback(pump)
	pump()
	s.RunUntil(s.Now().Add(sc.MaxSimTime))
	if (res.Completed < res.Issued || res.Issued < sc.Ops) &&
		epA.TL().Dead() == nil && epB.TL().Dead() == nil {
		psA.k.Failf("scenario %q livelocked: no drain after %v simulated (issued=%d completed=%d)\n"+
			"initiator: %s\n  tl pending=%v\ntarget: %s\n  tl expected=%d buffered=%v",
			sc.Name, sc.MaxSimTime, res.Issued, res.Completed,
			DumpConn(epA.PDL()), epA.TL().PendingRSNs(),
			DumpConn(epB.PDL()), epB.TL().ExpectedRSN(), epB.TL().BufferedRSNs())
	}

	// The single loop's hash is its hasher's bare sum. A partitioned run
	// folds the per-partition digests in partition order: the fold is
	// self-deterministic (same seed and shard count, same fold) but not
	// comparable to the single loop's stream.
	res.TraceHash, res.ProtoHash = sets[0].h.Sum64(), sets[0].h.ProtoSum64()
	if len(sets) > 1 {
		res.TraceHash, res.ProtoHash = fnvOffset64, fnvOffset64
		for _, ps := range sets {
			res.TraceHash = (res.TraceHash ^ ps.h.Sum64()) * fnvPrime64
			res.ProtoHash = (res.ProtoHash ^ ps.h.ProtoSum64()) * fnvPrime64
		}
	}
	for _, ps := range sets {
		res.Records += ps.h.Records()
		res.ProtoRecords += ps.h.ProtoRecords()
		res.Checks += ps.k.Checks
		res.Events += ps.k.Events
	}
	res.Served = psB.k.ServedCount(epB.TL())
	res.ConnFailed = epA.TL().Dead() != nil || epB.TL().Dead() != nil
	res.SimTime = s.Now()
	st := epA.PDL().Stats
	res.Retransmits = st.DataRetransmits + epB.PDL().Stats.DataRetransmits
	res.RTOs = st.RTOs + epB.PDL().Stats.RTOs
	res.Duplicates = epB.PDL().Stats.Duplicates + st.Duplicates
	res.NacksRx = st.NacksReceived
	res.RNRRetries = epA.TL().Stats.RNRRetries
	for _, pool := range []*wire.PacketPool{a.PacketPool(), b.PacketPool()} {
		res.PacketsAllocated += pool.Allocated()
		res.PacketsFree += pool.Free()
		if b.PacketPool() == a.PacketPool() {
			break
		}
	}

	// Post-run quiescence: everything issued completed, nothing is still
	// outstanding, every reservation was returned and, on the single loop
	// (whose one pool every packet leaves from and returns to), every
	// transport packet is back on the free list.
	if !res.ConnFailed {
		if res.Completed != res.Issued {
			psA.k.Failf("scenario %q: %d issued but %d completed\n%s",
				sc.Name, res.Issued, res.Completed, DumpConn(epA.PDL()))
		}
		sides := []struct {
			name string
			ep   *core.Endpoint
			node *core.Node
			ps   *probeSet
		}{{"initiator", epA, a, psA}, {"target", epB, b, psB}}
		for _, sd := range sides {
			if out := sd.ep.PDL().Outstanding(); out != 0 {
				sd.ps.k.Failf("scenario %q: %d packets still outstanding after drain\n%s",
					sc.Name, out, DumpConn(sd.ep.PDL()))
			}
			if q := sd.ep.PDL().QueuedPackets(); q != 0 {
				sd.ps.k.Failf("scenario %q: %d packets still queued after drain\n%s",
					sc.Name, q, DumpConn(sd.ep.PDL()))
			}
			for _, pool := range []tl.PoolKind{tl.PoolTxReq, tl.PoolTxResp, tl.PoolRxReq, tl.PoolRxResp} {
				if occ := sd.node.Resources().Occupancy(pool); occ != 0 {
					sd.ps.k.Failf("scenario %q: %s %v pool not drained (occupancy %.4f) — resource leak",
						sc.Name, sd.name, pool, occ)
				}
			}
		}
		if len(sets) == 1 && res.PacketsFree != res.PacketsAllocated {
			psA.k.Failf("scenario %q: %d transport packets allocated but %d free after drain — packet leak or double release",
				sc.Name, res.PacketsAllocated, res.PacketsFree)
		}
	}
	for _, ps := range sets {
		res.Violations += ps.k.Violations
	}
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
