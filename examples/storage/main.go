// Near Local Flash: disaggregate an NVMe SSD over Falcon (§6.3, Table 4)
// and compare against the same device attached locally.
//
//	go run ./examples/storage
package main

import (
	"fmt"
	"time"

	"falcon/internal/core"
	"falcon/internal/netsim"
	"falcon/internal/nvme"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

const runFor = 50 * time.Millisecond

// remoteRun measures NVMe-over-Falcon throughput for the given op mix.
func remoteRun(opBytes int, write bool, window int) (gbps float64, iops float64, p99 time.Duration) {
	s := sim.New(7)
	link := netsim.LinkConfig{GbpsRate: 200, PropDelay: time.Microsecond}
	topo, _ := netsim.PointToPoint(s, link)
	cl := core.NewCluster(s)
	a := cl.AddNode(topo.Hosts[0], core.DefaultNodeConfig())
	b := cl.AddNode(topo.Hosts[1], core.DefaultNodeConfig())
	epA, epB := cl.Connect(a, b, core.DefaultConnConfig())
	dev := nvme.NewDevice(s, nvme.DefaultDeviceConfig())
	nvme.NewController(epB, dev)
	client := nvme.NewClient(epA)

	var bytesDone uint64
	var ops uint64
	var lat stats.Series
	rng := s.Rand()
	issuer := workload.NewClosedLoop(s, window, 1<<30, func(opDone func()) bool {
		lba := uint64(rng.Intn(1 << 20))
		start := s.Now()
		fn := func(err error) {
			if err == nil {
				bytesDone += uint64(opBytes)
				ops++
				lat.AddDuration(s.Now().Sub(start))
			}
			opDone()
		}
		var err error
		if write {
			err = client.Write(lba, opBytes, fn)
		} else {
			err = client.Read(lba, opBytes, fn)
		}
		return err == nil
	}, nil)
	issuer.Start()
	s.RunUntil(sim.Time(runFor))
	return stats.Gbps(bytesDone, runFor), float64(ops) / runFor.Seconds(), lat.DurationPercentile(99)
}

// localRun measures the bare device with the same access pattern.
func localRun(opBytes int, write bool, window int) (gbps float64, iops float64, p99 time.Duration) {
	s := sim.New(7)
	dev := nvme.NewDevice(s, nvme.DefaultDeviceConfig())
	var bytesDone, ops uint64
	var lat stats.Series
	issuer := workload.NewClosedLoop(s, window, 1<<30, func(opDone func()) bool {
		start := s.Now()
		fn := func() {
			bytesDone += uint64(opBytes)
			ops++
			lat.AddDuration(s.Now().Sub(start))
			opDone()
		}
		if write {
			dev.Write(opBytes, fn)
		} else {
			dev.Read(opBytes, fn)
		}
		return true
	}, nil)
	issuer.Start()
	s.RunUntil(sim.Time(runFor))
	return stats.Gbps(bytesDone, runFor), float64(ops) / runFor.Seconds(), lat.DurationPercentile(99)
}

func main() {
	fmt.Println("Near Local Flash: NVMe-over-Falcon vs locally attached SSD")
	fmt.Println()
	fmt.Printf("%-22s %12s %12s %9s\n", "workload", "NLF", "local SSD", "NLF/local")
	rows := []struct {
		name   string
		bytes  int
		write  bool
		window int
	}{
		{"4KB random read", 4 << 10, false, 64},
		{"16KB random read", 16 << 10, false, 64},
		{"1MB write", 1 << 20, true, 16},
	}
	for _, r := range rows {
		rg, _, rp99 := remoteRun(r.bytes, r.write, r.window)
		lg, _, _ := localRun(r.bytes, r.write, r.window)
		fmt.Printf("%-22s %10.1fG %10.1fG %8.1f%%  (NLF p99 %v)\n",
			r.name, rg, lg, 100*rg/lg, rp99)
	}
	fmt.Println("\nNLF bandwidth stays within ~10% of the local device (Table 4's")
	fmt.Println("result): the SSD's own service time dominates the network overhead.")
}
