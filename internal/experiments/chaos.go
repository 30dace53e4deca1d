package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"falcon/internal/chaos"
	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/roce"
	"falcon/internal/routing"
	"falcon/internal/sim"
	"falcon/internal/telemetry"
	"falcon/internal/workload"
)

// Storm campaigns (DESIGN.md §14): figStorm races Falcon and RoCE under
// byte-identical seeded fault storms on the same rack-pair fabric and
// measures each transport's recovery envelope; figEndpointFault isolates
// one endpoint fault class per row (pause, crash with surviving or torn
// connection state, NIC blackhole, packet corruption, RNR stall) on a
// point-to-point Falcon link. Every row closes the frame-conservation
// ledger, and the whole chaos layer is exact-class: same seed, same
// bytes.

// stormSeedOverride, when non-zero, replaces the default storm seed set —
// the `falconbench -storm <seed>` knob, process-wide like the scheduler
// and routing-policy defaults.
var stormSeedOverride atomic.Int64

// SetStormSeed overrides the storm campaign seed set with a single seed
// (0 restores the default set).
func SetStormSeed(seed int64) { stormSeedOverride.Store(seed) }

// stormSeeds returns the campaign's seeds: the override when set, else
// the committed default trio.
func stormSeeds() []int64 {
	if s := stormSeedOverride.Load(); s != 0 {
		return []int64{s}
	}
	return []int64{71, 72, 73}
}

// stormRecoveryPct is the envelope's recovery band: trailing-median
// goodput back above this percentage of the pre-fault baseline.
const stormRecoveryPct = 70

// envBuckets is the number of envelope sampling buckets per run window.
const envBuckets = 16

// stormOpBytes is the per-op transfer size of storm workloads.
const stormOpBytes = 64 << 10

// stormSpec bounds figStorm's generated plans: fault windows inside the
// middle half of the run, so the envelope has a clean pre-fault baseline
// and a guaranteed fault-free tail. Crashers and stallers are zero — the
// plan must stay transport-agnostic so the identical storm can hit RoCE.
func stormSpec(runFor time.Duration, hostsPerRack, spines int) chaos.Spec {
	return chaos.Spec{
		Events:      6,
		Start:       sim.Time(runFor / 4),
		End:         sim.Time(3 * runFor / 4),
		Uplinks:     spines,
		HostPorts:   hostsPerRack,
		Hosts:       2 * hostsPerRack,
		RestoreGbps: 200,
	}
}

// stormTargets binds a plan's indices to one rack-pair fabric: fabric
// faults hit ToR-0's uplink group, blackholes hit the rack-0 (client)
// access links, pauses can hit any host.
func stormTargets(topo *netsim.Topology, hostsPerRack int) (chaos.Targets, []*netsim.Port) {
	uplinks := topo.ToRs[0].RouteTo(topo.Hosts[hostsPerRack].ID)
	var t chaos.Targets
	for _, p := range uplinks {
		t.Uplinks = append(t.Uplinks, p)
	}
	for i := 0; i < hostsPerRack; i++ {
		t.HostPorts = append(t.HostPorts, topo.Hosts[i].Uplink())
	}
	for _, h := range topo.Hosts {
		t.Hosts = append(t.Hosts, h)
	}
	return t, uplinks
}

// stormOps computes the per-pair Poisson op budget: arrivals cover the
// sampled window plus a quarter of slack, then issuance stops so the
// simulator can drain for the ledger audit.
func stormOps(opsPerSec float64, runFor time.Duration) int {
	return int(opsPerSec * (float64(runFor.Nanoseconds()) / 1e9) * 5 / 4)
}

// finishReport fills the envelope and ledger of a drained storm run.
func finishReport(rep *chaos.Report, env *chaos.Envelope, n *netsim.Network, plan chaos.Plan) {
	rep.Events = uint64(len(plan.Events))
	if len(plan.Events) > 0 {
		rep.Envelope = env.Finish(plan.FaultStart(), plan.FaultClear(), stormRecoveryPct)
	}
	rep.Ledger = chaos.Audit(n)
}

// stormFalconRun drives the rack-pair Falcon workload (8 cross-rack
// pairs, 60% offered load) under the storm plan and returns the filled
// report. An empty plan is the fault-free twin used for the retransmit
// amplification baseline.
func stormFalconRun(seed int64, plan chaos.Plan, runFor time.Duration) chaos.Report {
	const hostsPerRack = 8
	const spines = 4
	fabricGbps := float64(spines) * 200
	s, topo, cl := rackPair(seed, hostsPerRack, spines)
	var nodes []*core.Node
	for _, h := range topo.Hosts {
		nodes = append(nodes, cl.AddNode(h, core.DefaultNodeConfig()))
	}
	targets, _ := stormTargets(topo, hostsPerRack)
	inj := routing.NewInjector(s)
	chaos.Apply(s, inj, targets, plan)

	var rep chaos.Report
	var delivered uint64
	var eps []*core.Endpoint
	perPairRate := 0.6 * fabricGbps / float64(hostsPerRack)
	opsPerSec := perPairRate * 1e9 / 8 / stormOpBytes
	for i := 0; i < hostsPerRack; i++ {
		epA, epB := cl.Connect(nodes[i], nodes[hostsPerRack+i], multipathConn())
		qa := rdma.NewQP(epA, rdma.Config{})
		rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 40)
		eps = append(eps, epA, epB)
		gen := workload.NewPoisson(s, s.Rand(), opsPerSec, stormOps(opsPerSec, runFor), func() {
			qa.Write(0, 0, nil, stormOpBytes, func(c rdma.Completion) {
				if c.Err == nil {
					delivered += stormOpBytes
					rep.Completed++
				}
			})
		})
		gen.Start()
	}
	env := chaos.NewEnvelope(s, &delivered, runFor/envBuckets, sim.Time(runFor))
	s.Run()

	for _, ep := range eps {
		st := ep.PDL().Stats
		rep.Retransmits += st.DataRetransmits
		if st.MaxConsecRTOs > rep.RTODepth {
			rep.RTODepth = st.MaxConsecRTOs
		}
		rep.ConnsTotal++
		if ep.PDL().Failed() {
			rep.ConnsFailed++
		} else {
			rep.ConnsSurvived++
		}
	}
	finishReport(&rep, env, topo.Net, plan)
	return rep
}

// stormRoceRun is stormFalconRun's RoCE twin: the identical fabric shape,
// workload rate and storm plan, with RoCE RC QPs instead of Falcon
// endpoints. RoCE has no connection-death budget, so its connections
// always read as survived; the envelope and retransmit counters carry the
// comparison.
func stormRoceRun(seed int64, plan chaos.Plan, runFor time.Duration) chaos.Report {
	const hostsPerRack = 8
	const spines = 4
	fabricGbps := float64(spines) * 200
	s := sim.New(seed)
	host := netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
	fabric := netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * time.Microsecond}
	topo := netsim.TwoRack(s, hostsPerRack, spines, host, fabric)
	targets, _ := stormTargets(topo, hostsPerRack)
	inj := routing.NewInjector(s)
	chaos.Apply(s, inj, targets, plan)

	var rep chaos.Report
	var delivered uint64
	var qps []*roce.QP
	perPairRate := 0.6 * fabricGbps / float64(hostsPerRack)
	opsPerSec := perPairRate * 1e9 / 8 / stormOpBytes
	for i := 0; i < hostsPerRack; i++ {
		client := roce.NewNode(s, topo.Hosts[i], nil)
		server := roce.NewNode(s, topo.Hosts[hostsPerRack+i], nil)
		qp, _ := roce.Connect(client, server, uint32(i+1), roce.DefaultConfig())
		qps = append(qps, qp)
		gen := workload.NewPoisson(s, s.Rand(), opsPerSec, stormOps(opsPerSec, runFor), func() {
			qp.Write(stormOpBytes, func() {
				delivered += stormOpBytes
				rep.Completed++
			})
		})
		gen.Start()
	}
	env := chaos.NewEnvelope(s, &delivered, runFor/envBuckets, sim.Time(runFor))
	s.Run()

	for _, qp := range qps {
		rep.Retransmits += qp.Stats.Retransmits
		rep.ConnsTotal++
		rep.ConnsSurvived++
	}
	finishReport(&rep, env, topo.Net, plan)
	return rep
}

// stormRow renders one transport's report as a table row.
func stormRow(seed int64, transport string, rep chaos.Report) []string {
	return []string{
		fmt.Sprintf("%d", seed), transport,
		fmt.Sprintf("%d", rep.Events),
		fmt.Sprintf("%d", rep.Envelope.BaselineMbps),
		fmt.Sprintf("%d", rep.Envelope.StormMbps),
		fmt.Sprintf("%d", rep.Envelope.TailMbps),
		boolCell(rep.Envelope.Recovered),
		dur(time.Duration(rep.Envelope.RecoveryNs)),
		fmt.Sprintf("%d", rep.Retransmits),
		fmt.Sprintf("%d", rep.BaselineRetransmits),
		boolCell(rep.Ledger.Balanced()),
	}
}

func boolCell(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// FigStorm races Falcon against RoCE under identical seeded fault storms
// (six fabric+endpoint faults inside the middle half of the run) and
// reports each transport's recovery envelope, retransmit amplification
// and frame-conservation verdict.
func FigStorm(runFor time.Duration) *Table { return figStorm(runFor, nil) }

// FigStormTel is the instrumented FigStorm, exporting each run's chaos
// report under figStorm/seed<N>/<transport>.
func FigStormTel(runFor time.Duration, tel *telemetry.Suite) *Table {
	return figStorm(runFor, tel)
}

func figStorm(runFor time.Duration, tel *telemetry.Suite) *Table {
	t := &Table{
		Title: "Storm campaigns: Falcon vs RoCE under identical seeded fault storms, 60% load",
		Columns: []string{"seed", "transport", "events", "base Mbps", "storm Mbps",
			"tail Mbps", "recovered", "gap", "retx", "retx base", "ledger"},
	}
	for _, seed := range stormSeeds() {
		plan := chaos.Generate(seed, stormSpec(runFor, 8, 4))
		falcon := stormFalconRun(seed, plan, runFor)
		falcon.BaselineRetransmits = stormFalconRun(seed, chaos.Plan{}, runFor).Retransmits
		rocer := stormRoceRun(seed, plan, runFor)
		rocer.BaselineRetransmits = stormRoceRun(seed, chaos.Plan{}, runFor).Retransmits
		if tel != nil {
			reg := tel.Registry()
			fr, rr := falcon, rocer
			telemetry.CollectChaos(reg, fmt.Sprintf("figStorm/seed%d/falcon", seed), &fr)
			telemetry.CollectChaos(reg, fmt.Sprintf("figStorm/seed%d/roce", seed), &rr)
		}
		t.Rows = append(t.Rows, stormRow(seed, "falcon", falcon))
		t.Rows = append(t.Rows, stormRow(seed, "roce", rocer))
	}
	return t
}

// endpointScenario is one figEndpointFault row: a single fault event on a
// point-to-point Falcon link.
type endpointScenario struct {
	name  string
	event func(at sim.Time, d time.Duration) chaos.Event
}

// FigEndpointFault isolates each endpoint fault class on a point-to-point
// Falcon connection: host pause, crash with surviving connection state,
// crash with teardown (the peer discovers the death through its RTO
// budget), NIC blackhole, packet corruption and a receiver-not-ready
// stall. Each row reports the recovery envelope, RTO escalation depth,
// connection survival and the ledger verdict.
func FigEndpointFault(runFor time.Duration) *Table { return figEndpointFault(runFor, nil) }

// FigEndpointFaultTel is the instrumented FigEndpointFault, exporting
// each scenario's chaos report under figEndpointFault/<scenario>.
func FigEndpointFaultTel(runFor time.Duration, tel *telemetry.Suite) *Table {
	return figEndpointFault(runFor, tel)
}

func figEndpointFault(runFor time.Duration, tel *telemetry.Suite) *Table {
	t := &Table{
		Title: "Endpoint faults on a point-to-point Falcon link: recovery envelope per fault class",
		Columns: []string{"fault", "base Mbps", "storm Mbps", "tail Mbps", "recovered",
			"gap", "retx", "rto depth", "conns ok", "conns dead", "ledger"},
	}
	scenarios := []endpointScenario{
		{"pause", func(at sim.Time, d time.Duration) chaos.Event {
			return chaos.Event{Kind: chaos.KindPause, Target: 1, At: at, For: d}
		}},
		{"crash_survive", func(at sim.Time, d time.Duration) chaos.Event {
			return chaos.Event{Kind: chaos.KindCrash, Target: 1, At: at, For: d}
		}},
		{"crash_teardown", func(at sim.Time, d time.Duration) chaos.Event {
			return chaos.Event{Kind: chaos.KindCrash, Target: 1, At: at, For: d, Teardown: true}
		}},
		{"blackhole", func(at sim.Time, d time.Duration) chaos.Event {
			return chaos.Event{Kind: chaos.KindBlackhole, Target: 0, At: at, For: d}
		}},
		{"corrupt", func(at sim.Time, d time.Duration) chaos.Event {
			return chaos.Event{Kind: chaos.KindCorrupt, Target: 0, At: at, For: d, Prob: 0.25}
		}},
		{"rnr_stall", func(at sim.Time, d time.Duration) chaos.Event {
			return chaos.Event{Kind: chaos.KindRNRStall, Target: 0, At: at, For: d}
		}},
	}
	for _, sc := range scenarios {
		ev := sc.event(sim.Time(runFor/4), runFor/4)
		rep := endpointFaultRun(91, ev, runFor)
		if tel != nil {
			r := rep
			telemetry.CollectChaos(tel.Registry(), "figEndpointFault/"+sc.name, &r)
		}
		t.Rows = append(t.Rows, []string{
			sc.name,
			fmt.Sprintf("%d", rep.Envelope.BaselineMbps),
			fmt.Sprintf("%d", rep.Envelope.StormMbps),
			fmt.Sprintf("%d", rep.Envelope.TailMbps),
			boolCell(rep.Envelope.Recovered),
			dur(time.Duration(rep.Envelope.RecoveryNs)),
			fmt.Sprintf("%d", rep.Retransmits),
			fmt.Sprintf("%d", rep.RTODepth),
			fmt.Sprintf("%d", rep.ConnsSurvived),
			fmt.Sprintf("%d", rep.ConnsFailed),
			boolCell(rep.Ledger.Balanced()),
		})
	}
	return t
}

// endpointFaultRun drives one client->server Falcon connection over a
// point-to-point link at ~30% load through a single fault event. Host 0
// is the client (initiator), host 1 the server; faults index Hosts and
// HostPorts by host, and the RNR valve wraps the server's target.
func endpointFaultRun(seed int64, ev chaos.Event, runFor time.Duration) chaos.Report {
	const opBytes = 8 << 10
	s := sim.New(seed)
	topo, _ := netsim.PointToPoint(s, netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond})
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, epB := cl.Connect(a, b, multipathConn())
	qa := rdma.NewQP(epA, rdma.Config{})
	qb := rdma.NewQP(epB, rdma.Config{})
	qb.RegisterMemoryLen(1 << 40)
	valve := chaos.NewRNRValve(qb.Target(), 50*time.Microsecond)
	epB.SetTarget(valve)

	plan := chaos.Plan{Seed: seed, RestoreGbps: 200, Events: []chaos.Event{ev}}
	inj := routing.NewInjector(s)
	chaos.Apply(s, inj, chaos.Targets{
		Uplinks:   []chaos.FabricPort{topo.Hosts[0].Uplink(), topo.Hosts[1].Uplink()},
		HostPorts: []chaos.FabricPort{topo.Hosts[0].Uplink(), topo.Hosts[1].Uplink()},
		Hosts:     []chaos.Host{topo.Hosts[0], topo.Hosts[1]},
		Crashers:  []chaos.Crasher{a, b},
		Stallers:  []chaos.Staller{valve},
	}, plan)

	var rep chaos.Report
	var delivered uint64
	opsPerSec := 0.3 * 200e9 / 8 / opBytes
	gen := workload.NewPoisson(s, s.Rand(), opsPerSec, stormOps(opsPerSec, runFor), func() {
		qa.Write(0, 0, nil, opBytes, func(c rdma.Completion) {
			if c.Err == nil {
				delivered += opBytes
				rep.Completed++
			}
		})
	})
	gen.Start()
	env := chaos.NewEnvelope(s, &delivered, runFor/envBuckets, sim.Time(runFor))
	s.Run()

	for _, ep := range []*core.Endpoint{epA, epB} {
		st := ep.PDL().Stats
		rep.Retransmits += st.DataRetransmits
		if st.MaxConsecRTOs > rep.RTODepth {
			rep.RTODepth = st.MaxConsecRTOs
		}
		rep.ConnsTotal++
		if ep.PDL().Failed() {
			rep.ConnsFailed++
		} else {
			rep.ConnsSurvived++
		}
	}
	finishReport(&rep, env, topo.Net, plan)
	return rep
}

// stormPlanForTest exposes plan generation at the campaign's spec shape
// for the storm sweep tests (internal tests only).
func stormPlanForTest(seed int64, runFor time.Duration) chaos.Plan {
	return chaos.Generate(seed, stormSpec(runFor, 8, 4))
}
