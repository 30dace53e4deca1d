package experiments

import (
	"fmt"
	"time"

	"falcon/internal/chaos"
	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/routing"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/telemetry"
)

// This file is the fabric-side counterpart of fig15/fig17: instead of
// varying the transport's path policy, it swaps the switches' uplink
// selection (ECMP / spray / adaptive, internal/routing) underneath an
// unchanged Falcon multipath+PLB transport, with and without gray
// failures injected into the fabric. figRouting measures the head-to-head
// under a clean and a statically asymmetric fabric; figGrayFailure under
// flapping links and a correlated multi-uplink outage.

// routingCell is one measured (policy, scenario) run.
type routingCell struct {
	p50, p99  time.Duration
	gbps      float64
	spreadPct float64
	downDrops uint64
	repaths   uint64
}

// uplinkSpread summarizes an equal-cost uplink group after a run: the
// frame imbalance (max-min)*100/max and the total down-link drops. It is
// the same arithmetic telemetry.CollectUplinks emits, computed here so
// the table and the metrics artifact can never disagree.
func uplinkSpread(ports []*netsim.Port) (spreadPct float64, downDrops uint64) {
	var minF, maxF uint64
	for i, p := range ports {
		if i == 0 || p.Stats.TxFrames < minF {
			minF = p.Stats.TxFrames
		}
		if p.Stats.TxFrames > maxF {
			maxF = p.Stats.TxFrames
		}
		downDrops += p.Stats.DownDrops
	}
	if maxF > 0 {
		spreadPct = float64(maxF-minF) * 100 / float64(maxF)
	}
	return spreadPct, downDrops
}

// routingRun drives the §6.1.3 rack-pair Writes at the offered load with
// the given fabric routing policy, with the impair faults applied to
// ToR-0's uplink group (Target indexes that group). An instrumented run
// exports conn-0's PDL state, node-0's FAE counters, the uplink group's
// routing-layer spread cells and the (possibly degraded) uplink-0 port
// counters under the row's path.
func routingRun(r *row, pol routing.Policy, load float64, runFor time.Duration, impair []chaos.Event) routingCell {
	topo := rackPair(r)
	topo.SetRoutingPolicy(pol)
	cl, nodes := falconNodes(r, topo.Hosts, core.DefaultNodeConfig())
	// ToR-0's spine uplinks: the equal-cost set every cross-rack frame
	// from rack 0 fans over, and the group gray failures target.
	uplinks := topo.ToRs[0].RouteTo(topo.Hosts[rackHosts].ID)
	chaos.Apply(r.s, chaos.Targets{Uplinks: uplinks}, chaos.Plan{Events: impair})
	w := startRackWrites(r, cl, nodes, multipathConn(), load, 1<<30)
	if reg := r.reg; reg != nil {
		telemetry.CollectPDL(reg, r.path+"/conn0", w.eps[0].PDL())
		telemetry.CollectUplinks(reg, r.path+"/tor0", uplinks)
		// Uplink 0 is the impairment target in every scenario; its port
		// counters carry the slow-port queue depth and down-drop detail.
		telemetry.CollectPort(reg, r.path+"/up0", uplinks[0])
		telemetry.CollectFAE(reg, r.path+"/node0", nodes[0].Engine())
		telemetry.ObserveFAE(reg, r.path+"/node0", nodes[0].Engine())
	}
	r.s.RunUntil(sim.Time(runFor))
	cell := routingCell{
		p50:  w.lat.DurationPercentile(50),
		p99:  w.lat.DurationPercentile(99),
		gbps: stats.Gbps(w.delivered, runFor),
	}
	cell.spreadPct, cell.downDrops = uplinkSpread(uplinks)
	for _, n := range nodes {
		cell.repaths += n.Engine().Repaths
	}
	return cell
}

// FigRouting reproduces the fabric-policy head-to-head: Falcon
// multipath+PLB running over an ECMP, spray and adaptive fabric, on a
// clean symmetric Clos and on one with a statically degraded uplink
// (uplink 0 at 50 of 200 Gbps — a gray failure ECMP cannot see but
// adaptive routes around and PLB repaths away from).
//
// An instrumented run exports, for every (policy, fabric) cell, conn/FAE
// metrics plus the ToR-0 uplink-group spread under
// figRouting/<policy>/<sym|asym>.
func FigRouting(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title: "Routing policies: Falcon multipath+PLB over ECMP/spray/adaptive fabric, 60% load",
		Columns: []string{"policy", "sym p99", "sym Gbps", "sym spread%",
			"asym p99", "asym Gbps", "asym spread%"},
	}
	// Static asymmetry: uplink 0 degraded from t=0 and, with For 0, never
	// restored.
	asym := []chaos.Event{{Kind: chaos.KindSlow, Target: 0, At: 0, Gbps: 50}}
	for _, pol := range routing.Policies() {
		sym := routingRun(o.row(pol.Name()+"/sym", 41), pol, 0.6, runFor, nil)
		deg := routingRun(o.row(pol.Name()+"/asym", 41), pol, 0.6, runFor, asym)
		t.Rows = append(t.Rows, []string{
			pol.Name(), dur(sym.p99), f1(sym.gbps), f1(sym.spreadPct),
			dur(deg.p99), f1(deg.gbps), f1(deg.spreadPct),
		})
	}
	return t
}

// FigGrayFailure measures each fabric policy under injected gray
// failures: a flapping uplink (two down/up cycles) and a correlated
// outage taking half the uplink group down at once. down_drops counts
// frames the fabric ate; repaths counts Falcon's PLB reacting. An
// instrumented run exports the same per-cell metrics as FigRouting under
// figGrayFailure/<policy>/<flap|outage>.
func FigGrayFailure(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Gray failures: flapping uplink and correlated outage per routing policy, 60% load",
		Columns: []string{"policy", "scenario", "p99", "Gbps", "down_drops", "repaths"},
	}
	scenarios := []struct {
		name   string
		impair chaos.Event
	}{
		// Two down/up cycles on uplink 0 starting a quarter into the run,
		// each phase an eighth of the window: the port is back up for the
		// final quarter.
		{"flap", chaos.Event{Kind: chaos.KindFlap, Target: 0, At: sim.Time(runFor / 4), For: runFor / 2, Cycles: 2}},
		// Correlated failure: half the uplink group (uplinks 0 and 1) down
		// at once for a quarter of the window.
		{"outage", chaos.Event{Kind: chaos.KindOutage, Target: 0, At: sim.Time(runFor / 4), For: runFor / 4}},
	}
	for _, pol := range routing.Policies() {
		for _, sc := range scenarios {
			cell := routingRun(o.row(pol.Name()+"/"+sc.name, 43), pol, 0.6, runFor, []chaos.Event{sc.impair})
			t.Rows = append(t.Rows, []string{
				pol.Name(), sc.name, dur(cell.p99), f1(cell.gbps),
				fmt.Sprintf("%d", cell.downDrops), fmt.Sprintf("%d", cell.repaths),
			})
		}
	}
	return t
}
