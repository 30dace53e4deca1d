package experiments

import (
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/sim"
	"falcon/internal/stats"
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
		label := "delay only"
		if useECN {
			label = "delay + ECN"
		}
		r := o.row(label, 61)
		s := r.s
		topo := netsim.Star(s, 6, hostLink)
		down := topo.ToRs[0].RouteTo(topo.Hosts[0].ID)[0]
		down.SetECNThreshold(128 << 10)
		ncfg := core.DefaultNodeConfig()
		ncfg.FAE.UseECN = useECN
		// Mis-tuned: the delay target tolerates ~4x the queue the ECN
		// threshold flags.
		ncfg.FAE.Swift.BaseTargetDelay = 160 * time.Microsecond
		cl, nodes := falconNodes(r, topo.Hosts, ncfg)
		var lat stats.Series
		var delivered uint64
		for _, client := range nodes[1:] {
			for q := 0; q < 8; q++ {
				qa, _ := qpPair(cl, client, nodes[0], multipathConn())
				writeLoop(s, qa, 2, 64<<10, &lat, &delivered)
			}
		}
		s.RunUntil(sim.Time(runFor))
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
		label := "plaintext"
		if encrypt {
			label = "psp-encrypted"
		}
		s := o.row(label, 62).s
		topo, _ := netsim.PointToPoint(s, hostLink)
		cl := core.NewCluster(s)
		ncfgA, ncfgB := core.DefaultNodeConfig(), core.DefaultNodeConfig()
		if encrypt {
			ncfgA.PSPMasterKey = []byte("ablation-node-a-master-key-0000!")
			ncfgB.PSPMasterKey = []byte("ablation-node-b-master-key-1111!")
		}
		qa, _ := qpPair(cl, cl.AddNode(topo.Hosts[0], ncfgA), cl.AddNode(topo.Hosts[1], ncfgB), multipathConn())
		var lat stats.Series
		var delivered uint64
		writeLoop(s, qa, 48, 4096, &lat, &delivered)
		s.RunUntil(sim.Time(runFor))
		return []string{label, f1(stats.Gbps(delivered, runFor)), dur(lat.DurationPercentile(99))}
	}
	t.Rows = append(t.Rows, run(false), run(true))
	return t
}
