package experiments

import (
	"fmt"
	"time"

	"falcon/internal/chaos"
	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/roce"
	"falcon/internal/sim"
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

// stormRecoveryPct is the envelope's recovery band: trailing-median
// goodput back above this percentage of the pre-fault baseline.
const stormRecoveryPct = 70

// envBuckets is the number of envelope sampling buckets per run window.
const envBuckets = 16

// stormSpec bounds figStorm's generated plans: fault windows inside the
// middle half of the run, so the envelope has a clean pre-fault baseline
// and a guaranteed fault-free tail. Crashers and stallers are zero — the
// plan must stay transport-agnostic so the identical storm can hit RoCE.
func stormSpec(runFor time.Duration) chaos.Spec {
	return chaos.Spec{
		Events:      6,
		Start:       sim.Time(runFor / 4),
		End:         sim.Time(3 * runFor / 4),
		Uplinks:     rackSpines,
		HostPorts:   rackHosts,
		Hosts:       2 * rackHosts,
		RestoreGbps: 200,
	}
}

// stormTargets binds a plan's indices to one rack-pair fabric: fabric
// faults hit ToR-0's uplink group, blackholes hit the rack-0 (client)
// access links, pauses can hit any host.
func stormTargets(topo *netsim.Topology) chaos.Targets {
	t := chaos.Targets{Uplinks: topo.ToRs[0].RouteTo(topo.Hosts[rackHosts].ID), Hosts: topo.Hosts}
	for i := 0; i < rackHosts; i++ {
		t.HostPorts = append(t.HostPorts, topo.Hosts[i].Uplink())
	}
	return t
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
func stormFalconRun(r *row, plan chaos.Plan, runFor time.Duration) chaos.Report {
	topo := rackPair(r)
	cl, nodes := falconNodes(r, topo.Hosts, core.DefaultNodeConfig())
	chaos.Apply(r.s, stormTargets(topo), plan)
	w := startRackWrites(r, cl, nodes, multipathConn(), 0.6, stormOps(rackOpsPerSec(0.6), runFor))
	env := chaos.NewEnvelope(r.s, &w.delivered, runFor/envBuckets, sim.Time(runFor))
	r.s.Run()

	rep := chaos.Report{Completed: w.completed}
	connReport(&rep, w.eps)
	finishReport(&rep, env, topo.Net, plan)
	return rep
}

// stormRoceRun is stormFalconRun's RoCE twin: the identical fabric shape,
// workload rate and storm plan, with RoCE RC QPs instead of Falcon
// endpoints. RoCE has no connection-death budget, so its connections
// always read as survived; the envelope and retransmit counters carry the
// comparison.
func stormRoceRun(r *row, plan chaos.Plan, runFor time.Duration) chaos.Report {
	s := r.s
	topo := rackPair(r)
	chaos.Apply(s, stormTargets(topo), plan)

	var rep chaos.Report
	var delivered uint64
	var qps []*roce.QP
	opsPerSec := rackOpsPerSec(0.6)
	for i := 0; i < rackHosts; i++ {
		client := roce.NewNode(s, topo.Hosts[i], nil)
		server := roce.NewNode(s, topo.Hosts[rackHosts+i], nil)
		qp, _ := roce.Connect(client, server, uint32(i+1), roce.DefaultConfig())
		qps = append(qps, qp)
		workload.NewPoisson(s, s.Rand(), opsPerSec, stormOps(opsPerSec, runFor), func() {
			qp.Write(rackOpBytes, func() {
				delivered += rackOpBytes
				rep.Completed++
			})
		}).Start()
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

// connReport folds each endpoint's PDL counters into a report:
// retransmits, the deepest run of consecutive RTOs, and how many
// connections survived or failed.
func connReport(rep *chaos.Report, eps []*core.Endpoint) {
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
// and frame-conservation verdict. The campaign runs every seed of
// o.stormSeeds; an instrumented run exports each run's chaos report under
// figStorm/seed<N>/<transport>.
func FigStorm(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title: "Storm campaigns: Falcon vs RoCE under identical seeded fault storms, 60% load",
		Columns: []string{"seed", "transport", "events", "base Mbps", "storm Mbps",
			"tail Mbps", "recovered", "gap", "retx", "retx base", "ledger"},
	}
	for _, seed := range o.stormSeeds() {
		plan := chaos.Generate(seed, stormSpec(runFor))
		cell := fmt.Sprintf("seed%d/", seed)
		fr, rr := o.row(cell+"falcon", seed), o.row(cell+"roce", seed)
		falcon := stormFalconRun(fr, plan, runFor)
		falcon.BaselineRetransmits = stormFalconRun(o.row(cell+"falcon/base", seed), chaos.Plan{}, runFor).Retransmits
		rocer := stormRoceRun(rr, plan, runFor)
		rocer.BaselineRetransmits = stormRoceRun(o.row(cell+"roce/base", seed), chaos.Plan{}, runFor).Retransmits
		fr.chaos(falcon)
		rr.chaos(rocer)
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
// connection survival and the ledger verdict. An instrumented run exports
// each scenario's chaos report under figEndpointFault/<scenario>.
func FigEndpointFault(o Options, runFor time.Duration) *Table {
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
		r := o.row(sc.name, endpointFaultSeed)
		rep := endpointFaultRun(r, sc.event(sim.Time(runFor/4), runFor/4), runFor)
		r.chaos(rep)
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

// endpointFaultSeed seeds every figEndpointFault run and its plan.
const endpointFaultSeed = 91

// endpointFaultRun drives one client->server Falcon connection over a
// point-to-point link at ~30% load through a single fault event. Host 0
// is the client (initiator), host 1 the server; faults index Hosts and
// HostPorts by host, and the RNR valve wraps the server's target.
func endpointFaultRun(r *row, ev chaos.Event, runFor time.Duration) chaos.Report {
	const opBytes = 8 << 10
	p := newFalconP2P(r, multipathConn())
	s, topo := r.s, p.topo
	epA, epB := p.qa.Endpoint(), p.qb.Endpoint()
	valve := chaos.NewRNRValve(p.qb.Target(), 50*time.Microsecond)
	epB.SetTarget(valve)

	plan := chaos.Plan{Seed: endpointFaultSeed, RestoreGbps: 200, Events: []chaos.Event{ev}}
	chaos.Apply(s, chaos.Targets{
		Uplinks:   []*netsim.Port{topo.Hosts[0].Uplink(), topo.Hosts[1].Uplink()},
		HostPorts: []*netsim.Port{topo.Hosts[0].Uplink(), topo.Hosts[1].Uplink()},
		Hosts:     topo.Hosts[:2],
		Crashers:  []chaos.Crasher{epA.Node(), epB.Node()},
		Stallers:  []*chaos.RNRValve{valve},
	}, plan)

	var rep chaos.Report
	var delivered uint64
	opsPerSec := 0.3 * 200e9 / 8 / opBytes
	workload.NewPoisson(s, s.Rand(), opsPerSec, stormOps(opsPerSec, runFor), func() {
		p.qa.Write(0, 0, nil, opBytes, func(c rdma.Completion) {
			if c.Err == nil {
				delivered += opBytes
				rep.Completed++
			}
		})
	}).Start()
	env := chaos.NewEnvelope(s, &delivered, runFor/envBuckets, sim.Time(runFor))
	s.Run()

	connReport(&rep, []*core.Endpoint{epA, epB})
	finishReport(&rep, env, topo.Net, plan)
	return rep
}

// stormPlanForTest exposes plan generation at the campaign's spec shape
// for the storm sweep tests (internal tests only).
func stormPlanForTest(seed int64, runFor time.Duration) chaos.Plan {
	return chaos.Generate(seed, stormSpec(runFor))
}
