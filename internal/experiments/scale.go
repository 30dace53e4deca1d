package experiments

import (
	"strconv"
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
	"falcon/internal/telemetry"
	"falcon/internal/workload"
)

// FigScale profiles where a single event loop saturates as the fabric
// grows: a k=16-class 3-stage Clos swept across host counts under a fixed
// cross-rack closed-loop write workload. Every table cell is a pure
// function of (seed, topology, workload) — host pairing is deterministic
// (host i writes to its mirror in the opposite half of the fabric, always
// crossing the spine layer) and no runtime RNG feeds a printed value — so
// the table is byte-identical whether the run uses one event loop or N
// merged partitions (-shards). The interesting perf signal, events/sec at
// each scale, is wall-clock dependent and therefore lives in the
// falconbench -json FigureReport, not in a cell: pair a -shards 1 run
// against a -shards N run of this figure to get the head-to-head (see
// the sharding appendices of EXPERIMENTS.md). o.Quick keeps the two
// smallest tiers.
//
// With o.Tel set on a sharded run, each tier exports its partition
// counters — per-partition deliveries, cross-boundary events,
// window/stall counts — under the exact-class "shard" lake layer
// (METRICS.md §5b). Single-loop runs export nothing extra: there is no
// group to observe.
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
		if tel := o.Tel; tel != nil && s.Group() != nil {
			// Collectors are lazy (read at snapshot time, after the tier
			// has run), so registering before the run costs nothing on
			// the event path.
			telemetry.CollectShards(tel.Registry(), "figScale/hosts"+strconv.Itoa(tr.racks*tr.hostsPerRack), s.Group())
		}
		topo := o.clos(s, tr.racks, tr.hostsPerRack, tr.spines, hostLink, fabricLink)
		cl := core.NewCluster(s)
		nodes := make([]*core.Node, len(topo.Hosts))
		for i, h := range topo.Hosts {
			nodes[i] = cl.AddNode(h, core.DefaultNodeConfig())
		}
		// Deterministic pairing: host i in the first half of the fabric
		// writes to host i + hosts/2. With rack-major host order that is
		// the same slot hosts/(2*hostsPerRack) racks away, so every flow
		// crosses ToR -> spine -> ToR (and, under -shards, a partition
		// boundary: Clos places rack r on partition r).
		//
		// Completions accumulate into a per-rack slot and each closed loop
		// is scheduled on its client endpoint's own simulator handle, so
		// every callback touches only its rack's partition state. That
		// keeps this figure race-free even under the experimental
		// -shardpar mode, where partitions execute on concurrent
		// goroutines (figures that funnel completions into one shared
		// counter are merged-mode only).
		hosts := len(topo.Hosts)
		opsByRack := make([]uint64, tr.racks)
		for i := 0; i < hosts/2; i++ {
			epA, epB := cl.Connect(nodes[i], nodes[i+hosts/2], multipathConn())
			qa := rdma.NewQP(epA, rdma.Config{})
			rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 40)
			rack := i / tr.hostsPerRack
			clientSim := epA.Sim()
			issuer := workload.NewClosedLoop(clientSim, 4, 1<<30, func(opDone func()) bool {
				err := qa.Write(0, 0, nil, opBytes, func(c rdma.Completion) {
					if c.Err == nil {
						opsByRack[rack]++
					}
					opDone()
				})
				return err == nil
			}, nil)
			issuer.Start()
		}
		s.RunUntil(sim.Time(runFor))
		var ops uint64
		for _, n := range opsByRack {
			ops += n
		}
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
