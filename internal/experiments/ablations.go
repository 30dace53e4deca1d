package experiments

import (
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// AblationECN measures the supplementary ECN signal (Table 3). With a
// well-tuned delay target the echo is redundant (delay reacts first —
// which is the paper's position: delay is the primary signal). The
// interesting case is a *mis-tuned* target: here the Swift target is set
// far above the bottleneck queue's marking threshold, so delay-only CC
// lets the queue run to the port limit while the ECN echo holds it near
// the threshold.
func AblationECN(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Ablation: ECN backstopping a mis-tuned delay target (5x8 QP incast, 64KB writes)",
		Columns: []string{"cc signals", "p50", "p99", "goodput Gbps", "max queue KB"},
	}
	run := func(useECN bool) []string {
		s := o.newSim(61)
		link := netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
		topo := netsim.Star(s, 6, link)
		down := topo.ToRs[0].RouteTo(topo.Hosts[0].ID)[0]
		down.SetECNThreshold(128 << 10)
		cl := core.NewCluster(s)
		ncfg := core.DefaultNodeConfig()
		ncfg.FAE.UseECN = useECN
		// Mis-tuned: the delay target tolerates ~4x the queue the ECN
		// threshold flags.
		ncfg.FAE.Swift.BaseTargetDelay = 160 * time.Microsecond
		server := cl.AddNode(topo.Hosts[0], ncfg)
		var lat stats.Series
		var delivered uint64
		for h := 1; h <= 5; h++ {
			client := cl.AddNode(topo.Hosts[h], ncfg)
			for q := 0; q < 8; q++ {
				epC, epS := cl.Connect(client, server, multipathConn())
				qa := rdma.NewQP(epC, rdma.Config{})
				rdma.NewQP(epS, rdma.Config{}).RegisterMemoryLen(1 << 40)
				issuer := workload.NewClosedLoop(s, 2, 1<<30, func(opDone func()) bool {
					start := s.Now()
					err := qa.Write(0, 0, nil, 64<<10, func(c rdma.Completion) {
						if c.Err == nil {
							lat.AddDuration(s.Now().Sub(start))
							delivered += 64 << 10
						}
						opDone()
					})
					return err == nil
				}, nil)
				issuer.Start()
			}
		}
		s.RunUntil(sim.Time(runFor))
		label := "delay only"
		if useECN {
			label = "delay + ECN"
		}
		return []string{
			label, dur(lat.DurationPercentile(50)), dur(lat.DurationPercentile(99)),
			f1(stats.Gbps(delivered, runFor)), f1(float64(down.Stats.MaxQueueBytes) / 1024),
		}
	}
	t.Rows = append(t.Rows, run(false), run(true))
	return t
}

// AblationPSP measures inline encryption's cost in the simulator: the
// per-packet PSP overhead bytes (header + AES-GCM tag) against plaintext,
// on a saturated point-to-point write stream.
func AblationPSP(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Ablation: PSP inline encryption overhead (4KB writes, 200G link)",
		Columns: []string{"mode", "goodput Gbps", "p99"},
	}
	run := func(encrypt bool) []string {
		s := o.newSim(62)
		link := netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
		topo, _ := netsim.PointToPoint(s, link)
		cl := core.NewCluster(s)
		ncfgA, ncfgB := core.DefaultNodeConfig(), core.DefaultNodeConfig()
		if encrypt {
			ncfgA.PSPMasterKey = []byte("ablation-node-a-master-key-0000!")
			ncfgB.PSPMasterKey = []byte("ablation-node-b-master-key-1111!")
		}
		a := cl.AddNode(topo.Hosts[0], ncfgA)
		b := cl.AddNode(topo.Hosts[1], ncfgB)
		epA, epB := cl.Connect(a, b, multipathConn())
		qa := rdma.NewQP(epA, rdma.Config{})
		rdma.NewQP(epB, rdma.Config{}).RegisterMemoryLen(1 << 40)
		var lat stats.Series
		var delivered uint64
		issuer := workload.NewClosedLoop(s, 48, 1<<30, func(opDone func()) bool {
			start := s.Now()
			err := qa.Write(0, 0, nil, 4096, func(c rdma.Completion) {
				if c.Err == nil {
					lat.AddDuration(s.Now().Sub(start))
					delivered += 4096
				}
				opDone()
			})
			return err == nil
		}, nil)
		issuer.Start()
		s.RunUntil(sim.Time(runFor))
		label := "plaintext"
		if encrypt {
			label = "psp-encrypted"
		}
		return []string{label, f1(stats.Gbps(delivered, runFor)), dur(lat.DurationPercentile(99))}
	}
	t.Rows = append(t.Rows, run(false), run(true))
	return t
}
