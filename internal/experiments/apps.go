package experiments

import (
	"fmt"
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/nvme"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/swtransport"
	"falcon/internal/workload"
)

// collectiveTable runs one MPI collective over RDMA-Falcon and TCP across
// message sizes (the §6.3 Intel-MPI-Benchmark comparisons).
//
// Scaled down: ranks per node reduced from the paper's 192 to 4, or 8 for
// MultiPingPong (the collective algorithms and per-message transport costs
// set the shape; rank count scales both columns alike).
func collectiveTable(o Options, title string, seed int64, nodes, ranksPerNode int,
	coll func(workload.Messenger, int, func()), sizes []int) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"msg size", "RDMA-Falcon", "TCP", "speedup"},
	}
	ranks := nodes * ranksPerNode
	run := func(falcon bool, bytes int) time.Duration {
		r := o.row(jobName(falcon)+"/"+fmtSize(bytes), seed)
		m := job(r, falcon, nodes, ranksPerNode, ranks)
		var done sim.Time
		coll(m, bytes, func() { done = r.s.Now() })
		r.s.Run()
		return done.Duration()
	}
	for _, bytes := range sizes {
		f := run(true, bytes)
		tc := run(false, bytes)
		t.Rows = append(t.Rows, []string{fmtSize(bytes), dur(f), dur(tc), f1(float64(tc) / float64(f))})
	}
	return t
}

// Fig25 reproduces the AllReduce comparison (32 nodes in the paper).
func Fig25(o Options) *Table {
	return collectiveTable(o, "Figure 25: MPI AllReduce completion time (16 nodes x 4 ranks)",
		25, 16, 4, workload.AllReduce, []int{4, 64, 1 << 10, 16 << 10, 64 << 10, 256 << 10})
}

// Fig26 reproduces the AllToAll comparison.
func Fig26(o Options) *Table {
	return collectiveTable(o, "Figure 26: MPI AllToAll completion time (16 nodes x 4 ranks)",
		25, 16, 4, workload.AllToAll, []int{4, 64, 1 << 10, 16 << 10, 64 << 10})
}

// Fig30 reproduces the AllGather comparison (8 nodes in the paper).
func Fig30(o Options) *Table {
	return collectiveTable(o, "Figure 30: MPI AllGather completion time (8 nodes x 4 ranks)",
		25, 8, 4, workload.AllGather, []int{4, 64, 1 << 10, 16 << 10, 64 << 10})
}

// Fig31 reproduces the MultiPingPong comparison (2 nodes in the paper).
func Fig31(o Options) *Table {
	return collectiveTable(o, "Figure 31: MPI MultiPingPong completion time (2 nodes x 8 ranks, 50 iters)",
		31, 2, 8, func(m workload.Messenger, bytes int, done func()) {
			workload.MultiPingPong(m, bytes, 50, done)
		}, []int{4, 64, 1 << 10, 16 << 10, 64 << 10})
}

// Fig27 reproduces the GROMACS scaling study: steps/s vs node count over
// Falcon and TCP. TCP stops scaling once per-step communication dominates.
func Fig27(o Options) *Table {
	return hpcTable(o, "Figure 27: GROMACS-like scaling (steps/s)", workload.DefaultGromacs)
}

// Fig28 reproduces the WRF scaling study.
func Fig28(o Options) *Table {
	return hpcTable(o, "Figure 28: WRF-like scaling (steps/s)", workload.DefaultWRF)
}

func hpcTable(o Options, title string, cfgFor func(int) workload.HPCConfig) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"nodes", "RDMA-Falcon", "TCP", "speedup"},
	}
	for _, nodes := range []int{1, 2, 4, 8, 16, 32} {
		run := func(falcon bool) float64 {
			r := o.row(fmt.Sprintf("%s/nodes%d", jobName(falcon), nodes), 27)
			return workload.RunHPC(r.s, job(r, falcon, nodes, 1, nodes), cfgFor(nodes))
		}
		falcon, tcp := run(true), run(false)
		t.Rows = append(t.Rows, []string{f1(float64(nodes)), f1(falcon), f1(tcp), f2(falcon / tcp)})
	}
	return t
}

// Fig29 reproduces the live-migration comparison: phase durations, guest
// access rate and vCPU wait over RDMA-Falcon vs Pony Express.
func Fig29(o Options) *Table {
	t := &Table{
		Title:   "Figure 29: live migration (4GB guest, dirtying under load)",
		Columns: []string{"transport", "pre-copy", "post-copy", "guest pages/s", "vCPU wait"},
	}
	cfg := workload.DefaultMigration()
	cfg.MemoryBytes = 4 << 30
	// Falcon pipe.
	{
		p := newFalconP2P(o.row("falcon", 29), multipathConn())
		res := workload.RunMigration(p.s, workload.NewFalconPipe(p.qa), cfg)
		t.Rows = append(t.Rows, []string{"RDMA-Falcon",
			res.PreCopy.Round(time.Millisecond).String(),
			res.PostCopy.Round(time.Millisecond).String(),
			f1(res.GuestAccessRate), res.VCPUWait.Round(time.Millisecond).String()})
	}
	// Pony Express pipe.
	{
		r := o.row("pony", 29)
		topo, _ := netsim.PointToPoint(r.s, hostLink)
		sw := swNodes(r, topo.Hosts)
		res := workload.RunMigration(r.s, workload.NewSWPipe(swtransport.Connect(sw[0], sw[1], 1)), cfg)
		t.Rows = append(t.Rows, []string{"Pony Express",
			res.PreCopy.Round(time.Millisecond).String(),
			res.PostCopy.Round(time.Millisecond).String(),
			f1(res.GuestAccessRate), res.VCPUWait.Round(time.Millisecond).String()})
	}
	return t
}

// Table4 reproduces the Near Local Flash comparison: NVMe-over-Falcon
// bandwidth/IOPS as a fraction of the locally attached SSD.
func Table4(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Table 4: NLF (NVMe-over-Falcon) relative to local SSD",
		Columns: []string{"metric", "NLF Gbps", "local Gbps", "NLF/local %"},
	}
	remote := func(name string, opBytes int, write bool, window int) float64 {
		r := o.row(name+"/nlf", 4)
		s := r.s
		topo, _ := netsim.PointToPoint(s, hostLink)
		cl, n := falconNodes(r, topo.Hosts, core.DefaultNodeConfig())
		epA, epB := cl.Connect(n[0], n[1], multipathConn())
		dev := nvme.NewDevice(s, nvme.DefaultDeviceConfig())
		nvme.NewController(epB, dev)
		client := nvme.NewClient(epA)
		var bytesDone uint64
		workload.NewClosedLoop(s, window, 1<<30, func(opDone func()) bool {
			fn := func(err error) {
				if err == nil {
					bytesDone += uint64(opBytes)
				}
				opDone()
			}
			var err error
			if write {
				err = client.Write(0, opBytes, fn)
			} else {
				err = client.Read(0, opBytes, fn)
			}
			return err == nil
		}, nil).Start()
		s.RunUntil(sim.Time(runFor))
		return stats.Gbps(bytesDone, runFor)
	}
	local := func(name string, opBytes int, write bool, window int) float64 {
		s := o.row(name+"/local", 4).s
		dev := nvme.NewDevice(s, nvme.DefaultDeviceConfig())
		var bytesDone uint64
		workload.NewClosedLoop(s, window, 1<<30, func(opDone func()) bool {
			fn := func() {
				bytesDone += uint64(opBytes)
				opDone()
			}
			if write {
				dev.Write(opBytes, fn)
			} else {
				dev.Read(opBytes, fn)
			}
			return true
		}, nil).Start()
		s.RunUntil(sim.Time(runFor))
		return stats.Gbps(bytesDone, runFor)
	}
	rows := []struct {
		name   string
		bytes  int
		write  bool
		window int
	}{
		{"read bandwidth (16KB)", 16 << 10, false, 64},
		{"write bandwidth (1MB)", 1 << 20, true, 16},
		{"IOPS proxy (4KB reads)", 4 << 10, false, 64},
	}
	for _, r := range rows {
		rg := remote(r.name, r.bytes, r.write, r.window)
		lg := local(r.name, r.bytes, r.write, r.window)
		t.Rows = append(t.Rows, []string{r.name, f1(rg), f1(lg), f1(100 * rg / lg)})
	}
	return t
}

// job builds a message-passing job on a Clos on the row's simulator:
// workload.BuildFalconJob, or without falcon BuildSWJob over TCP.
func job(r *row, falcon bool, nodes, ranksPerNode, ranks int) workload.Messenger {
	if falcon {
		m, _ := workload.BuildFalconJob(r.s, nodes, ranksPerNode, ranks)
		return m
	}
	m, _ := workload.BuildSWJob(r.s, nodes, ranksPerNode, ranks, swtransport.TCP())
	return m
}

// jobName names a job's row: its transport.
func jobName(falcon bool) string {
	if falcon {
		return "falcon"
	}
	return "tcp"
}
