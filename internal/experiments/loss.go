package experiments

import (
	"time"

	"falcon/internal/falcon/pdl"
	"falcon/internal/netsim"
	"falcon/internal/rdma"
	"falcon/internal/roce"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/telemetry"
	"falcon/internal/workload"
)

// Fig10 reproduces "Falcon and RoCE goodput under losses for different
// ops" (§6.1.1): a 1:1 experiment with 8KB ops and random drops of the
// named packet class, sweeping the drop percentage. Falcon holds goodput;
// RoCE-SR helps only Writes and Read Responses; RoCE-GBN collapses.
//
// On an instrumented run, every Falcon cell exports its PDL loss-recovery
// counters (retransmit causes, ACK coalescing, NACK codes) and the
// representative Write/1%-drop cell additionally records a
// cwnd-and-retransmit time series — the loss-recovery trace behind the
// figure.
func Fig10(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 10: goodput (Gbps) under random drops, 8KB ops, 200G link",
		Columns: []string{"op", "drop%", "Falcon", "RoCE-SR", "RoCE-GBN"},
	}
	drops := []float64{0, 0.1, 0.5, 1, 2}
	type sub struct {
		name string
		kind opKind
	}
	subs := []sub{
		{"Write", opWrite},
		{"Send", opSend},
		{"ReadResp", opRead}, // responses dropped on the reverse path
		{"ReadReq", opRead},  // requests dropped on the forward path
	}
	for _, sb := range subs {
		for _, drop := range drops {
			cell := sb.name + "/drop" + f1(drop)
			p := newFalconP2P(o.row(cell, 1), multipathConn())
			applyDrop(sb.name, p.forward, p.reverse, drop)
			if p.reg != nil {
				conn := p.qa.Endpoint()
				telemetry.CollectPDL(p.reg, p.path, conn.PDL())
				telemetry.CollectTL(p.reg, p.path, conn.TL())
				telemetry.CollectPort(p.reg, p.path+"/fwd", p.forward)
				if sb.name == "Write" && drop == 1 {
					p.series("write_drop1", runFor, func(sp *telemetry.Sampler) {
						telemetry.TrackPDL(sp, "conn", conn.PDL())
						telemetry.TrackPort(sp, "fwd", p.forward)
					})
				}
			}
			falcon := p.goodput(sb.kind, 8192, 48, runFor)
			roceCell := func(mode roce.Mode) float64 {
				p := newRoceP2P(o.row(cell+"/"+mode.String(), 1), mode)
				applyDrop(sb.name, p.forward, p.reverse, drop)
				return p.goodput(sb.kind, 8192, 48, runFor)
			}
			t.Rows = append(t.Rows, []string{sb.name, f1(drop), f1(falcon), f1(roceCell(roce.SR)), f1(roceCell(roce.GBN))})
		}
	}
	return t
}

// applyDrop impairs the right direction for the packet class under test.
// Writes, Sends and Read Requests travel client→server (forward port);
// Read Responses travel server→client (reverse port). Note the fig 10
// convention: "ReadResp" drops the responses of a read workload,
// "ReadReq" drops its requests.
func applyDrop(name string, fwd, rev *netsim.Port, pct float64) {
	if name == "ReadResp" {
		rev.SetDropProb(pct / 100)
		return
	}
	fwd.SetDropProb(pct / 100)
}

// Fig11a reproduces "Falcon and RoCE goodput when writes are reordered":
// the same 1:1 experiment with the switch delaying a fraction of packets
// instead of dropping them.
func Fig11a(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 11a: goodput (Gbps) under reordering, 8KB writes, 200G link",
		Columns: []string{"reorder extent (us)", "Falcon", "RoCE-SR", "RoCE-GBN"},
	}
	for _, extent := range []time.Duration{0, 5 * time.Microsecond, 10 * time.Microsecond, 20 * time.Microsecond, 40 * time.Microsecond} {
		cell := "reorder" + f1(extent.Seconds()*1e6)
		p := newFalconP2P(o.row(cell, 1), multipathConn())
		p.forward.SetReorder(0.1, extent)
		falcon := p.goodput(opWrite, 8192, 48, runFor)
		roceCell := func(mode roce.Mode) float64 {
			p := newRoceP2P(o.row(cell+"/"+mode.String(), 1), mode)
			p.forward.SetReorder(0.1, extent)
			return p.goodput(opWrite, 8192, 48, runFor)
		}
		t.Rows = append(t.Rows, []string{f1(extent.Seconds() * 1e6), f1(falcon), f1(roceCell(roce.SR)), f1(roceCell(roce.GBN))})
	}
	return t
}

// Fig11b reproduces "role of RACK-TLP under losses": 128KB writes with
// Poisson arrivals, comparing RACK-TLP against the OOO-distance heuristic
// that shipped in 200G Falcon.
func Fig11b(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 11b: RACK-TLP vs OOO-distance goodput (Gbps), 128KB Poisson writes",
		Columns: []string{"drop%", "RACK-TLP", "OOO-D"},
	}
	run := func(recovery pdl.RecoveryMode, drop float64) float64 {
		cfg := multipathConn()
		cfg.PDL.Recovery = recovery
		p := newFalconP2P(o.row(recovery.String()+"/drop"+f1(drop), 3), cfg)
		p.forward.SetDropProb(drop / 100)
		var delivered uint64
		const opBytes = 128 << 10
		// Poisson at ~60% of line rate.
		rate := 0.6 * 200e9 / 8 / opBytes
		workload.NewPoisson(p.s, p.s.Rand(), rate, 1<<30, func() {
			p.qa.Write(0, 0, nil, opBytes, func(c rdma.Completion) {
				if c.Err == nil {
					delivered += opBytes
				}
			})
		}).Start()
		p.s.RunUntil(sim.Time(runFor))
		return stats.Gbps(delivered, runFor)
	}
	for _, drop := range []float64{0.1, 0.5, 1, 2, 4} {
		t.Rows = append(t.Rows, []string{
			f1(drop),
			f1(run(pdl.RecoveryRackTLP, drop)),
			f1(run(pdl.RecoveryOOODistance, drop)),
		})
	}
	return t
}

// Fig12 reproduces "RoCE goodput under losses, in three different modes":
// 16KB writes, GBN vs SR vs AR. AR recovers only by timeout and performs
// worst.
func Fig12(o Options, runFor time.Duration) *Table {
	t := &Table{
		Title:   "Figure 12: RoCE modes goodput (Gbps) under drops, 16KB writes",
		Columns: []string{"drop%", "RoCE-GBN", "RoCE-SR", "RoCE-AR"},
	}
	run := func(mode roce.Mode, drop float64) float64 {
		p := newRoceP2P(o.row(mode.String()+"/drop"+f1(drop), 5), mode)
		p.forward.SetDropProb(drop / 100)
		return p.goodput(opWrite, 16<<10, 48, runFor)
	}
	for _, drop := range []float64{0, 0.1, 0.5, 1, 2} {
		t.Rows = append(t.Rows, []string{
			f1(drop),
			f1(run(roce.GBN, drop)),
			f1(run(roce.SR, drop)),
			f1(run(roce.AR, drop)),
		})
	}
	return t
}
