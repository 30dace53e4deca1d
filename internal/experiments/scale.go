package experiments

import (
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
	"falcon/internal/workload"
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
	hostLink := netsim.LinkConfig{GbpsRate: 100, PropDelay: 500 * time.Nanosecond}
	for _, tr := range tiers {
		// Keep the fabric mildly oversubscribed at every tier
		// (hostsPerRack*100 Gbps of access vs spines*200 Gbps of uplink)
		// so the spine layer, not the access links, is the bottleneck the
		// sweep stresses.
		fabricLink := netsim.LinkConfig{GbpsRate: 200, PropDelay: 2 * time.Microsecond}
		s := o.newSim(30)
		topo := netsim.Clos(s, tr.racks, tr.hostsPerRack, tr.spines, hostLink, fabricLink)
		cl := core.NewCluster(s)
		nodes := make([]*core.Node, len(topo.Hosts))
		for i, h := range topo.Hosts {
			nodes[i] = cl.AddNode(h, core.DefaultNodeConfig())
		}
		// Deterministic pairing: host i in the first half of the fabric
		// writes to host i + hosts/2. With rack-major host order that is
		// the same slot hosts/(2*hostsPerRack) racks away, so every flow
		// crosses ToR -> spine -> ToR.
		hosts := len(topo.Hosts)
		var ops uint64
		for i := 0; i < hosts/2; i++ {
			epA, epB := cl.Connect(nodes[i], nodes[i+hosts/2], multipathConn())
			qa := rdma.NewQP(epA, rdma.Config{})
			rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 40)
			issuer := workload.NewClosedLoop(s, 4, 1<<30, func(opDone func()) bool {
				err := qa.Write(0, 0, nil, opBytes, func(c rdma.Completion) {
					if c.Err == nil {
						ops++
					}
					opDone()
				})
				return err == nil
			}, nil)
			issuer.Start()
		}
		s.RunUntil(sim.Time(runFor))
		ev := s.Processed()
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
