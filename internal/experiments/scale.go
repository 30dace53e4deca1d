package experiments

import (
	"fmt"
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/sim"
)

// FigScale profiles where a single event loop saturates as the fabric
// grows: a k=16-class 3-stage Clos swept across host counts under a fixed
// cross-rack closed-loop write workload. Every table cell is a pure
// function of (seed, topology, workload) — host pairing is deterministic
// (host i writes to its mirror in the opposite half of the fabric, always
// crossing the spine layer) and no runtime RNG feeds a printed value. The
// interesting perf signal, events/sec at each scale, is wall-clock
// dependent and therefore not a cell: the runner's "(figScale in <t>, <n>
// events)" annotation carries it. o.Quick keeps the two smallest tiers.
func FigScale(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "figScale: fabric scaling — cross-rack closed-loop writes on a 3-stage Clos",
		Columns: []string{"hosts", "racks", "spines", "conns", "ops", "goodput Gbps", "sim events", "ev/host"},
	}
	type tier struct{ racks, hostsPerRack, spines int }
	tiers := []tier{
		{4, 16, 4},    // 64 hosts
		{8, 32, 8},    // 256 hosts
		{16, 64, 16},  // 1024 hosts: k=16 Clos class
		{16, 128, 16}, // 2048 hosts: widest sweep point
	}
	if o.Quick {
		tiers = tiers[:2]
	}
	const opBytes = 4 << 10
	accessLink := netsim.LinkConfig{GbpsRate: 100, PropDelay: 500 * time.Nanosecond}
	for _, tr := range tiers {
		// Keep the fabric mildly oversubscribed at every tier
		// (hostsPerRack*100 Gbps of access vs spines*200 Gbps of uplink)
		// so the spine layer, not the access links, is the bottleneck the
		// sweep stresses.
		fabricLink := netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * time.Microsecond}
		r := o.row(fmt.Sprintf("hosts%d", tr.racks*tr.hostsPerRack), 30)
		s := r.s
		topo := netsim.Clos(s, tr.racks, tr.hostsPerRack, tr.spines, accessLink, fabricLink)
		cl, nodes := falconNodes(r, topo.Hosts, core.DefaultNodeConfig())
		// Deterministic pairing: host i in the first half of the fabric
		// writes to host i + hosts/2. With rack-major host order that is
		// the same slot hosts/(2*hostsPerRack) racks away, so every flow
		// crosses ToR -> spine -> ToR.
		hosts := len(topo.Hosts)
		var delivered uint64
		for i := 0; i < hosts/2; i++ {
			qa, _ := qpPair(cl, nodes[i], nodes[i+hosts/2], multipathConn())
			writeLoop(s, qa, 4, opBytes, nil, &delivered)
		}
		s.RunUntil(sim.Time(runFor))
		ev, ops := s.Processed(), delivered/opBytes
		t.Rows = append(t.Rows, []string{
			f1(float64(hosts)), f1(float64(tr.racks)), f1(float64(tr.spines)),
			f1(float64(hosts / 2)),
			f1(float64(ops)),
			f1(float64(ops) * opBytes * 8 / runFor.Seconds() / 1e9),
			f1(float64(ev)),
			f1(float64(ev) / float64(hosts)),
		})
	}
	return t
}
